open Kernel
open Memory
open Detectors

let upsilon_of_omega_k ~n_plus_1 d =
  Detector.map
    ~name:(d.Detector.name ^ ">upsilon")
    (fun committee -> Pid.Set.complement ~n_plus_1 committee)
    ~pp:Pid.Set.pp ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set d

let upsilon_of_omega ~n_plus_1 d =
  Detector.map
    ~name:(d.Detector.name ^ ">upsilon")
    (fun leader -> Pid.Set.complement ~n_plus_1 (Pid.Set.singleton leader))
    ~pp:Pid.Set.pp ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set d

let omega_of_upsilon_2proc d =
  Detector.mapi
    ~name:(d.Detector.name ^ ">omega")
    (fun me _time u ->
      let complement = Pid.Set.complement ~n_plus_1:2 u in
      if Pid.Set.cardinal complement = 1 then Pid.Set.choose complement else me)
    ~pp:Pid.pp ~equal:Pid.equal ~id:Sim.Witness.pid d

let anti_omega_of_omega ~n_plus_1 d =
  Detector.mapi
    ~name:(d.Detector.name ^ ">anti")
    (fun _me time leader ->
      let others =
        List.filter (fun p -> not (Pid.equal p leader)) (Pid.all ~n_plus_1)
      in
      List.nth others (time mod List.length others))
    ~pp:Pid.pp ~equal:Pid.equal ~id:Sim.Witness.pid d

let omega_of_ev_perfect ~n_plus_1 d =
  Detector.mapi
    ~name:(d.Detector.name ^ ">omega")
    (fun me _time suspected ->
      let alive =
        List.filter
          (fun p -> not (Pid.Set.mem p suspected))
          (Pid.all ~n_plus_1)
      in
      match alive with p :: _ -> p | [] -> me)
    ~pp:Pid.pp ~equal:Pid.equal ~id:Sim.Witness.pid d

let ev_perfect_of_perfect d =
  Detector.map ~name:(d.Detector.name ^ ">ev_perfect") Fun.id ~pp:Pid.Set.pp
    ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set d

module Omega_from_upsilon1 = struct
  type t = {
    n_plus_1 : int;
    upsilon1 : Pid.Set.t Sim.source;
    stamps : Register.Counter.t array;
    leaders : Pid.t option array;
    mutable log : (Pid.t * int * Pid.t) list;
  }

  let create ~name ~n_plus_1 ~upsilon1 =
    if n_plus_1 < 2 then
      invalid_arg "Omega_from_upsilon1.create: need >= 2 processes";
    {
      n_plus_1;
      upsilon1;
      stamps = Register.array ~name:(name ^ ".ts") ~size:n_plus_1 ~init:(fun _ -> 0);
      leaders = Array.make n_plus_1 None;
      log = [];
    }

  let set_leader t ~me p =
    let changed =
      match t.leaders.(me) with Some cur -> not (Pid.equal cur p) | None -> true
    in
    if changed then
      Sim.atomic
        (Sim.Output { label = "omega-out"; value = Pid.to_string p })
        (fun ctx ->
          t.leaders.(me) <- Some p;
          t.log <- (me, ctx.Sim.now, p) :: t.log)

  (* Highest-timestamp ranking: the n processes with the largest stamps
     (ties to the smaller pid), then the smallest id among them. *)
  let elect_by_stamps t stamps =
    let ranked =
      List.sort
        (fun (p1, s1) (p2, s2) ->
          if s1 <> s2 then Int.compare s2 s1 else Pid.compare p1 p2)
        (List.mapi (fun p s -> (p, s)) (Array.to_list stamps))
    in
    let top_n = List.filteri (fun i _ -> i < t.n_plus_1 - 1) ranked in
    List.fold_left
      (fun acc (p, _) -> match acc with None -> Some p | Some q -> Some (min p q))
      None top_n
    |> Option.get

  let runner t ~me () =
    while true do
      Register.Counter.incr t.stamps.(me);
      let stamps = Register.collect t.stamps in
      let u = Sim.query t.upsilon1 in
      let complement = Pid.Set.complement ~n_plus_1:t.n_plus_1 u in
      if Pid.Set.cardinal complement = 1 then
        set_leader t ~me (Pid.Set.choose complement)
      else if Pid.Set.is_empty complement then
        set_leader t ~me (elect_by_stamps t stamps)
      (* |complement| >= 2 is pre-stabilization garbage for Υ¹ (range
         says |U| >= n); keep the previous leader. *)
    done

  let fibers t ~me = [ runner t ~me ]
  let current_leader t pid = t.leaders.(pid)
  let change_log t = List.rev t.log

  let check t ~pattern ~last_time ~tail =
    let correct = Failure_pattern.correct pattern in
    let cutoff = last_time - tail in
    let late =
      List.filter
        (fun (pid, time, _) -> time > cutoff && Pid.Set.mem pid correct)
        (change_log t)
    in
    if late <> [] then
      Error
        (Format.asprintf "leader still changing after %d (%d tail changes)"
           cutoff (List.length late))
    else
      let finals =
        Pid.Set.elements correct |> List.map (fun p -> t.leaders.(p))
      in
      match finals with
      | [] -> Error "no correct process"
      | None :: _ -> Error "a correct process never elected a leader"
      | Some first :: rest ->
          if
            not
              (List.for_all
                 (function Some p -> Pid.equal p first | None -> false)
                 rest)
          then Error "correct processes disagree on the leader"
          else if not (Failure_pattern.is_correct pattern first) then
            Error (Format.asprintf "stable leader %a is faulty" Pid.pp first)
          else Ok ()
end
