open Kernel
open Memory

type t = { n_plus_1 : int; rounds : Rounds.t }

let create ~name ~n_plus_1 =
  if n_plus_1 < 2 then invalid_arg "Async_attempt.create: need >= 2 processes";
  { n_plus_1; rounds = Rounds.create ~name ~n_plus_1 }

let proposer t ~me ~input () =
  Sim.input ~label:"propose" ~value:(string_of_int input);
  let n = t.n_plus_1 - 1 in
  let w = t.rounds in
  let rec round r v =
    Rounds.enter w ~me ~round:r ~sub:0;
    match Register.read (Rounds.final w) with
    | Some x -> Rounds.decide w ~me ~round:r x
    | None ->
        let conv = Rounds.converge w ~round:r ~sub:0 ~k:n in
        let v, committed = Converge.run conv ~me v in
        if committed then begin
          Register.write (Rounds.final w) (Some v);
          Rounds.decide w ~me ~round:r v
        end
        else round (r + 1) v
  in
  round 1 input

let decisions t = Rounds.decisions t.rounds
let rounds_entered t = Rounds.rounds_entered t.rounds
