open Kernel
open Memory

type t = {
  n_plus_1 : int;
  f : int;
  snapshot_impl : Snap.impl;
  upsilon_f : Pid.Set.t Sim.source;
  final : int option Register.t;
  round_d : (int, int option Register.t) Hashtbl.t;
  round_stable : (int, bool Register.t) Hashtbl.t;
  snaps : (int * int, int option Snap.t) Hashtbl.t; (* A[r][k] *)
  arena : int Converge.Arena.t;
  mutable decided : (Pid.t * int) list;
  mutable decided_rounds : (Pid.t * int) list;
  mutable max_round : int;
  obj_prefix : string;
}

let create ?(snapshot_impl = Snap.Registers) ~name ~n_plus_1 ~f ~upsilon_f () =
  if n_plus_1 < 2 then invalid_arg "Upsilon_f_sa.create: need >= 2 processes";
  if f < 1 || f > n_plus_1 - 1 then invalid_arg "Upsilon_f_sa.create: bad f";
  {
    n_plus_1;
    f;
    snapshot_impl;
    upsilon_f;
    final = Register.create ~name:(name ^ ".D") None;
    round_d = Hashtbl.create 32;
    round_stable = Hashtbl.create 32;
    snaps = Hashtbl.create 32;
    arena =
      Converge.Arena.create ~name:(name ^ ".cv") ~size:n_plus_1
        ~compare:Int.compare;
    decided = [];
    decided_rounds = [];
    max_round = 0;
    obj_prefix = name;
  }

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

let snap_of t r k =
  match Hashtbl.find_opt t.snaps (r, k) with
  | Some s -> s
  | None ->
      let s =
        Snap.make ~impl:t.snapshot_impl
          ~name:(Printf.sprintf "%s.A[%d][%d]" t.obj_prefix r k)
          ~size:t.n_plus_1
          ~init:(fun _ -> None)
      in
      Hashtbl.add t.snaps (r, k) s;
      s

let decide t ~me ~round v =
  t.decided <- (me, v) :: t.decided;
  t.decided_rounds <- (me, round) :: t.decided_rounds;
  Sim.output ~label:"decide" ~value:(string_of_int v)

let min_non_bot view =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some v -> ( match acc with None -> Some v | Some w -> Some (min v w)))
    None view

let count_non_bot view =
  Array.fold_left (fun acc -> function None -> acc | Some _ -> acc + 1) 0 view

let proposer t ~me ~input () =
  Sim.input ~label:"propose" ~value:(string_of_int input);
  let n_plus_1 = t.n_plus_1 in
  let rec round r v =
    if r > t.max_round then t.max_round <- r;
    (* top of the round: f-convergence; commits decide through D *)
    let conv =
      Converge.Arena.instance t.arena ~k:t.f ~tag:(Printf.sprintf "main.r%d" r)
    in
    let v, committed = Converge.run conv ~me v in
    if committed then begin
      Register.write t.final (Some v);
      decide t ~me ~round:r v
    end
    else
      let u = Sim.query t.upsilon_f in
      gladiator r v u 1
  and gladiator r v u k =
    match Register.read t.final with
    | Some w -> decide t ~me ~round:r w
    | None -> (
        if Register.read (stable_of t r) then round (r + 1) v
        else
          match Register.read (d_of t r) with
          | Some w -> round (r + 1) w (* line 23/33: adopt D[r] *)
          | None ->
              let u' = Sim.query t.upsilon_f in
              if not (Pid.Set.equal u' u) then begin
                Register.write (stable_of t r) true;
                round (r + 1) v
              end
              else if not (Pid.Set.mem me u) then begin
                (* line 11: citizens publish and advance *)
                Register.write (d_of t r) (Some v);
                round (r + 1) v
              end
              else begin
                (* line 16: publish in A[r][k], then the waiting loop of
                   lines 17-19 with the escape conditions of the proof *)
                let a = snap_of t r k in
                Snap.update a ~me (Some v);
                let rec await () =
                  match Register.read t.final with
                  | Some w -> `Decide w
                  | None -> (
                      match Register.read (d_of t r) with
                      | Some w -> `Adopt w
                      | None ->
                          if Register.read (stable_of t r) then `Advance
                          else
                            let u'' = Sim.query t.upsilon_f in
                            if not (Pid.Set.equal u'' u) then begin
                              Register.write (stable_of t r) true;
                              `Advance
                            end
                            else
                              let view = Snap.scan a in
                              if count_non_bot view >= n_plus_1 - t.f then
                                `Full view
                              else await ())
                in
                match await () with
                | `Decide w -> decide t ~me ~round:r w
                | `Adopt w -> round (r + 1) w
                | `Advance -> round (r + 1) v
                | `Full view -> (
                    (* line 25: adopt the minimal value of the scan *)
                    match min_non_bot view with
                    | None -> assert false (* >= n+1-f >= 1 entries *)
                    | Some v ->
                        (* line 26: (|U|+f-n-1)-convergence *)
                        let kk = Pid.Set.cardinal u + t.f - n_plus_1 in
                        let tag =
                          if kk = 0 then ""
                          else Printf.sprintf "glad.r%d.k%d" r k
                        in
                        let kconv =
                          Converge.Arena.instance t.arena ~k:kk ~tag
                        in
                        let v, committed = Converge.run kconv ~me v in
                        if committed then begin
                          Register.write (d_of t r) (Some v);
                          round (r + 1) v
                        end
                        else gladiator r v u (k + 1))
              end)
  in
  round 1 input

let decisions t = List.rev t.decided
let decision_rounds t = List.rev t.decided_rounds
let rounds_entered t = t.max_round
