open Kernel
open Memory

type t = { k : int; omega_k : Pid.Set.t Sim.source; rounds : Rounds.t }

let create ~name ~n_plus_1 ~k ~omega_k =
  if n_plus_1 < 2 then invalid_arg "Omega_k_sa.create: need >= 2 processes";
  if k < 1 || k > n_plus_1 then invalid_arg "Omega_k_sa.create: bad k";
  { k; omega_k; rounds = Rounds.create ~name ~n_plus_1 }

let proposer t ~me ~input () =
  Sim.input ~label:"propose" ~value:(string_of_int input);
  let w = t.rounds in
  let decide ~round v = Rounds.decide w ~me ~round v in
  let rec round r v =
    Rounds.enter w ~me ~round:r ~sub:0;
    let conv = Rounds.converge w ~round:r ~sub:0 ~k:t.k in
    let v, committed = Converge.run conv ~me v in
    if committed then begin
      Register.write (Rounds.final w) (Some v);
      decide ~round:r v
    end
    else
      let committee = Sim.query t.omega_k in
      follow r v committee
  and follow r v committee =
    match Register.read (Rounds.final w) with
    | Some x -> decide ~round:r x
    | None -> (
        if Register.read (Rounds.stable w r) then round (r + 1) v
        else
          match Register.read (Rounds.d w r) with
          | Some x -> round (r + 1) x (* adopt a committee value *)
          | None ->
              let committee' = Sim.query t.omega_k in
              if not (Pid.Set.equal committee' committee) then begin
                Register.write (Rounds.stable w r) true;
                round (r + 1) v
              end
              else if Pid.Set.mem me committee then begin
                (* committee member: publish and advance with own value *)
                Register.write (Rounds.d w r) (Some v);
                round (r + 1) v
              end
              else follow r v committee)
  in
  round 1 input

let decisions t = Rounds.decisions t.rounds
let decision_rounds t = Rounds.decision_rounds t.rounds
let rounds_entered t = Rounds.rounds_entered t.rounds
