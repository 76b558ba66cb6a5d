open Kernel
open Memory

type t = {
  n_plus_1 : int;
  omega_n : Pid.Set.t Sim.source;
  rounds : Rounds.t;
  ca : (unit, int Converge.instance) Rounds.family;
  (* The n-process consensus object O[r]L for round r and committee L:
     only processes that believe themselves members touch it, and
     committees have exactly n members, so its n ports always suffice. *)
  objects : (Pid.Set.t, int Consensus_obj.t) Rounds.family;
  allocated : int ref; (* objects built so far *)
  mutable max_ports_used : int;
}

let create ~name ~n_plus_1 ~omega_n =
  if n_plus_1 < 2 then
    invalid_arg "Booster_consensus.create: need >= 2 processes";
  let rounds = Rounds.create ~name ~n_plus_1 in
  let ca r _ () =
    Converge.create ~k:1 ~size:n_plus_1 ~compare:Int.compare
      ~name:(Printf.sprintf "%s.ca.k1/ca.r%d" name r)
  in
  let allocated = ref 0 in
  let obj r _ committee =
    incr allocated;
    Consensus_obj.create
      ~name:(Printf.sprintf "%s.O[%d]%s" name r (Pid.Set.to_string committee))
      ~ports:(Some (n_plus_1 - 1))
  in
  {
    n_plus_1;
    omega_n;
    rounds;
    ca = Rounds.family rounds Rounds.Round ca;
    objects = Rounds.family rounds Rounds.Round obj;
    allocated;
    max_ports_used = 0;
  }

let proposer t ~me ~input () =
  Sim.input ~label:"propose" ~value:(string_of_int input);
  let w = t.rounds in
  let decide ~round v = Rounds.decide w ~me ~round v in
  let rec round r v =
    Rounds.enter w ~me ~round:r ~sub:0;
    (* safety guard: commit-adopt; a commit is a decision *)
    let ca = Rounds.get t.ca ~round:r ~sub:0 () in
    let v, committed = Converge.run ca ~me v in
    if committed then begin
      Register.write (Rounds.final w) (Some v);
      decide ~round:r v
    end
    else
      let committee = Sim.query t.omega_n in
      let v =
        if Pid.Set.mem me committee && Pid.Set.cardinal committee = t.n_plus_1 - 1
        then begin
          (* funnel through the committee's n-consensus object *)
          let obj = Rounds.get t.objects ~round:r ~sub:0 committee in
          let x = Consensus_obj.propose obj v in
          let ports = Pid.Set.cardinal (Consensus_obj.accessors obj) in
          t.max_ports_used <- max t.max_ports_used ports;
          Register.write (Rounds.d w r) (Some x);
          x
        end
        else v
      in
      follow r v committee
  and follow r v committee =
    match Register.read (Rounds.final w) with
    | Some x -> decide ~round:r x
    | None -> (
        if Register.read (Rounds.stable w r) then round (r + 1) v
        else
          match Register.read (Rounds.d w r) with
          | Some x -> round (r + 1) x
          | None ->
              let committee' = Sim.query t.omega_n in
              if not (Pid.Set.equal committee' committee) then begin
                Register.write (Rounds.stable w r) true;
                round (r + 1) v
              end
              else follow r v committee)
  in
  round 1 input

let decisions t = Rounds.decisions t.rounds
let decision_rounds t = Rounds.decision_rounds t.rounds
let max_ports_used t = t.max_ports_used
let objects_allocated t = !(t.allocated)
