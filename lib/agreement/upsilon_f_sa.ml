open Kernel
open Memory

type t = {
  n_plus_1 : int;
  f : int;
  upsilon_f : Pid.Set.t Sim.source;
  rounds : Rounds.t;
  snaps : (unit, int option Snap.t) Rounds.family; (* A[r][k] *)
}

let create ?(snapshot_impl = Snap.Registers) ~name ~n_plus_1 ~f ~upsilon_f () =
  if n_plus_1 < 2 then invalid_arg "Upsilon_f_sa.create: need >= 2 processes";
  if f < 1 || f > n_plus_1 - 1 then invalid_arg "Upsilon_f_sa.create: bad f";
  let rounds = Rounds.create ~name ~n_plus_1 in
  let snap r k () =
    Snap.make ~impl:snapshot_impl
      ~name:(Printf.sprintf "%s.A[%d][%d]" name r k)
      ~size:n_plus_1
      ~init:(fun _ -> None)
  in
  let snaps = Rounds.family rounds Rounds.Sub snap in
  { n_plus_1; f; upsilon_f; rounds; snaps }

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
  let w = t.rounds in
  let final = Rounds.final w in
  let decide ~round v = Rounds.decide w ~me ~round v in
  let rec round r v =
    Rounds.enter w ~me ~round:r ~sub:0;
    (* top of the round: f-convergence; commits decide through D *)
    let conv = Rounds.converge w ~round:r ~sub:0 ~k:t.f in
    let v, committed = Converge.run conv ~me v in
    if committed then begin
      Register.write final (Some v);
      decide ~round:r v
    end
    else
      let u = Sim.query t.upsilon_f in
      gladiator r v u 1
  and gladiator r v u k =
    Rounds.enter w ~me ~round:r ~sub:k;
    match Register.read final with
    | Some x -> decide ~round:r x
    | None -> (
        if Register.read (Rounds.stable w r) then round (r + 1) v
        else
          match Register.read (Rounds.d w r) with
          | Some x -> round (r + 1) x (* line 23/33: adopt D[r] *)
          | None ->
              let u' = Sim.query t.upsilon_f in
              if not (Pid.Set.equal u' u) then begin
                Register.write (Rounds.stable w r) true;
                round (r + 1) v
              end
              else if not (Pid.Set.mem me u) then begin
                (* line 11: citizens publish and advance *)
                Register.write (Rounds.d w r) (Some v);
                round (r + 1) v
              end
              else begin
                (* line 16: publish in A[r][k], then the waiting loop of
                   lines 17-19 with the escape conditions of the proof *)
                let a = Rounds.get t.snaps ~round:r ~sub:k () in
                Snap.update a ~me (Some v);
                let rec await () =
                  match Register.read final with
                  | Some x -> `Decide x
                  | None -> (
                      match Register.read (Rounds.d w r) with
                      | Some x -> `Adopt x
                      | None ->
                          if Register.read (Rounds.stable w r) then `Advance
                          else
                            let u'' = Sim.query t.upsilon_f in
                            if not (Pid.Set.equal u'' u) then begin
                              Register.write (Rounds.stable w r) true;
                              `Advance
                            end
                            else
                              let view = Snap.scan a in
                              if count_non_bot view >= n_plus_1 - t.f then
                                `Full view
                              else await ())
                in
                match await () with
                | `Decide x -> decide ~round:r x
                | `Adopt x -> round (r + 1) x
                | `Advance -> round (r + 1) v
                | `Full view -> (
                    (* line 25: adopt the minimal value of the scan *)
                    match min_non_bot view with
                    | None -> assert false (* >= n+1-f >= 1 entries *)
                    | Some v ->
                        (* line 26: (|U|+f-n-1)-convergence *)
                        let kk = Pid.Set.cardinal u + t.f - n_plus_1 in
                        let kconv = Rounds.converge w ~round:r ~sub:k ~k:kk in
                        let v, committed = Converge.run kconv ~me v in
                        if committed then begin
                          Register.write (Rounds.d w r) (Some v);
                          round (r + 1) v
                        end
                        else gladiator r v u (k + 1))
              end)
  in
  round 1 input

let decisions t = Rounds.decisions t.rounds
let decision_rounds t = Rounds.decision_rounds t.rounds
let rounds_entered t = Rounds.rounds_entered t.rounds
