open Kernel
open Memory

type escapes = {
  watch_stable : bool;
  watch_round_d : bool;
  watch_final : bool;
}

let all_escapes = { watch_stable = true; watch_round_d = true; watch_final = true }

type t = {
  n_plus_1 : int;
  escapes : escapes;
  upsilon : Pid.Set.t Sim.source;
  rounds : Rounds.t;
}

let create ?(escapes = all_escapes) ~name ~n_plus_1 ~upsilon () =
  if n_plus_1 < 2 then invalid_arg "Upsilon_sa.create: need >= 2 processes";
  { n_plus_1; escapes; upsilon; rounds = Rounds.create ~name ~n_plus_1 }

let proposer t ~me ~input () =
  Sim.input ~label:"propose" ~value:(string_of_int input);
  let n = t.n_plus_1 - 1 in
  let w = t.rounds in
  let decide ~round v = Rounds.decide w ~me ~round v in
  (* Line 4: try to commit through n-convergence; committed values are
     published in D and decided. *)
  let rec round r v =
    Rounds.enter w ~me ~round:r ~sub:0;
    let conv = Rounds.converge w ~round:r ~sub:0 ~k:n in
    let v, committed = Converge.run conv ~me v in
    if committed then begin
      Register.write (Rounds.final w) (Some v);
      decide ~round:r v
    end
    else
      let u = Sim.query t.upsilon in
      gladiator r v u 1
  (* Lines 12-17: the cyclic procedure, one iteration per sub-round k. *)
  and gladiator r v u k =
    Rounds.enter w ~me ~round:r ~sub:k;
    let final_hit =
      if t.escapes.watch_final then Register.read (Rounds.final w) else None
    in
    match final_hit with
    | Some x -> decide ~round:r x (* line 17/21: D non-bot *)
    | None -> (
        if t.escapes.watch_stable && Register.read (Rounds.stable w r) then
          round (r + 1) v
        else
          let round_d_hit =
            if t.escapes.watch_round_d then Register.read (Rounds.d w r)
            else None
          in
          match round_d_hit with
          | Some x -> round (r + 1) x (* adopt D[r] *)
          | None ->
              let u' = Sim.query t.upsilon in
              if not (Pid.Set.equal u' u) then begin
                (* line 16: report instability and move on *)
                Register.write (Rounds.stable w r) true;
                round (r + 1) v
              end
              else if not (Pid.Set.mem me u) then begin
                (* citizen: publish value, advance *)
                Register.write (Rounds.d w r) (Some v);
                round (r + 1) v
              end
              else
                (* gladiator: try to eliminate one value among U *)
                let kk = Pid.Set.cardinal u - 1 in
                let kconv = Rounds.converge w ~round:r ~sub:k ~k:kk in
                let v, committed = Converge.run kconv ~me v in
                if committed then begin
                  Register.write (Rounds.d w r) (Some v);
                  round (r + 1) v
                end
                else gladiator r v u (k + 1))
  in
  round 1 input

let decisions t = Rounds.decisions t.rounds
let decision_rounds t = Rounds.decision_rounds t.rounds
let rounds_entered t = Rounds.rounds_entered t.rounds
