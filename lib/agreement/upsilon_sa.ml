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
  final : int option Register.t; (* the paper's D *)
  round_d : (int, int option Register.t) Hashtbl.t; (* D[r] *)
  round_stable : (int, bool Register.t) Hashtbl.t; (* Stable[r] *)
  arena : int Converge.Arena.t;
  mutable decided : (Pid.t * int) list;
  mutable decided_rounds : (Pid.t * int) list;
  mutable max_round : int;
  obj_prefix : string;
}

let create ?(escapes = all_escapes) ~name ~n_plus_1 ~upsilon () =
  if n_plus_1 < 2 then invalid_arg "Upsilon_sa.create: need >= 2 processes";
  {
    n_plus_1;
    escapes;
    upsilon;
    final = Register.create ~name:(name ^ ".D") None;
    round_d = Hashtbl.create 32;
    round_stable = Hashtbl.create 32;
    arena = Converge.Arena.create ~name:(name ^ ".cv") ~size:n_plus_1 ~compare:Int.compare;
    decided = [];
    decided_rounds = [];
    max_round = 0;
    obj_prefix = name;
  }

(* Round-indexed registers are allocated lazily and shared: allocation is
   harness-level bookkeeping, not a model step. *)
let d_of t r =
  match Hashtbl.find_opt t.round_d r with
  | Some reg -> reg
  | None ->
      let reg =
        Register.create ~name:(Printf.sprintf "%s.D[%d]" t.obj_prefix r) None
      in
      Hashtbl.add t.round_d r reg;
      reg

let stable_of t r =
  match Hashtbl.find_opt t.round_stable r with
  | Some reg -> reg
  | None ->
      let reg =
        Register.create
          ~name:(Printf.sprintf "%s.Stable[%d]" t.obj_prefix r)
          false
      in
      Hashtbl.add t.round_stable r reg;
      reg

let decide t ~me ~round v =
  t.decided <- (me, v) :: t.decided;
  t.decided_rounds <- (me, round) :: t.decided_rounds;
  Sim.output ~label:"decide" ~value:(string_of_int v)

let proposer t ~me ~input () =
  Sim.input ~label:"propose" ~value:(string_of_int input);
  let n = t.n_plus_1 - 1 in
  (* Line 4: try to commit through n-convergence; committed values are
     published in D and decided. *)
  let rec round r v =
    if r > t.max_round then t.max_round <- r;
    let conv =
      Converge.Arena.instance t.arena ~k:n ~tag:(Printf.sprintf "main.r%d" r)
    in
    let v, committed = Converge.run conv ~me v in
    if committed then begin
      Register.write t.final (Some v);
      decide t ~me ~round:r v
    end
    else
      let u = Sim.query t.upsilon in
      gladiator r v u 1
  (* Lines 12-17: the cyclic procedure, one iteration per sub-round k. *)
  and gladiator r v u k =
    let final_hit =
      if t.escapes.watch_final then Register.read t.final else None
    in
    match final_hit with
    | Some w -> decide t ~me ~round:r w (* line 17/21: D non-bot *)
    | None -> (
        if t.escapes.watch_stable && Register.read (stable_of t r) then
          round (r + 1) v
        else
          let round_d_hit =
            if t.escapes.watch_round_d then Register.read (d_of t r) else None
          in
          match round_d_hit with
          | Some w -> round (r + 1) w (* adopt D[r] *)
          | None ->
              let u' = Sim.query t.upsilon in
              if not (Pid.Set.equal u' u) then begin
                (* line 16: report instability and move on *)
                Register.write (stable_of t r) true;
                round (r + 1) v
              end
              else if not (Pid.Set.mem me u) then begin
                (* citizen: publish value, advance *)
                Register.write (d_of t r) (Some v);
                round (r + 1) v
              end
              else
                (* gladiator: try to eliminate one value among U; a
                   singleton U runs 0-converge, which needs no tag *)
                let kk = Pid.Set.cardinal u - 1 in
                let tag =
                  if kk = 0 then "" else Printf.sprintf "glad.r%d.k%d" r k
                in
                let kconv = Converge.Arena.instance t.arena ~k:kk ~tag in
                let v, committed = Converge.run kconv ~me v in
                if committed then begin
                  Register.write (d_of t r) (Some v);
                  round (r + 1) v
                end
                else gladiator r v u (k + 1))
  in
  round 1 input

let decisions t = List.rev t.decided
let decision_rounds t = List.rev t.decided_rounds
let rounds_entered t = t.max_round
