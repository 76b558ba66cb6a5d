open Kernel

let make ?name ~rng ~pattern ?stab_time () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  Detector.stabilizing ?name ~family:"ev_perfect"
    ~default:(fun _ -> "ev_perfect")
    ~rng ?stab_time
    ~stable:(fun _ time -> Failure_pattern.crashed_by pattern time)
    ~chaos:(fun ~seed pid time ->
      if Rng.bool (Detector.Chaos.rng ~seed pid (time + 7919)) then
        (* Chaotic suspicions may be any subset, including the empty one. *)
        Detector.Chaos.subset_at_least ~seed ~n_plus_1 ~min_size:1 pid time
      else Pid.Set.empty)
    ~render:Pid.Set.to_string ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set ()

let stable_from ~pattern ~stab_time =
  max stab_time (Failure_pattern.max_crash_time pattern + 1)

let check ?(only = fun _ -> true) (d : Pid.Set.t Detector.t) ~pattern ~stab_by
    ~horizon =
  let all = Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 pattern) in
  Detector.first_violation d (List.filter only all) ~from:stab_by
    ~until:horizon (fun p time got ->
      let want = Failure_pattern.crashed_by pattern time in
      if Pid.Set.equal got want then None
      else
        Some
          (Format.asprintf "at (%a, %d): got %a, want %a" Pid.pp p time
             Pid.Set.pp got Pid.Set.pp want))

let leader ~n_plus_1 (d : Pid.Set.t Detector.t) =
  let rec unsuspected me suspected q =
    if q >= n_plus_1 then me
    else if Pid.Set.mem q suspected then unsuspected me suspected (q + 1)
    else q
  in
  Detector.mapi ~name:(d.name ^ ">omega")
    (fun me _time suspected -> unsuspected me suspected 0)
    ~render:Pid.to_string ~equal:Pid.equal ~id:Sim.Witness.pid d
