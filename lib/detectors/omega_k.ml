open Kernel

let random_stable_set rng pattern k =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let correct = Pid.Set.elements (Failure_pattern.correct pattern) in
  let anchor = Rng.pick rng correct in
  let others = List.filter (fun p -> not (Pid.equal p anchor)) (Pid.all ~n_plus_1) in
  let arr = Array.of_list others in
  Rng.shuffle rng arr;
  Pid.Set.of_list (anchor :: Array.to_list (Array.sub arr 0 (k - 1)))

let chaos_set ~seed ~n_plus_1 ~k pid time =
  let r = Detector.Chaos.rng ~seed pid time in
  let pids = Array.of_list (Pid.all ~n_plus_1) in
  Rng.shuffle r pids;
  Pid.Set.of_list (Array.to_list (Array.sub pids 0 k))

let make ?name ~rng ~pattern ~k ?stable_set ?stab_time () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  if k < 1 || k > n_plus_1 then invalid_arg "Omega_k.make: bad k";
  let correct = Failure_pattern.correct pattern in
  let stable_set =
    match stable_set with
    | Some s ->
        if Pid.Set.cardinal s <> k then
          invalid_arg "Omega_k.make: stable set must have k members";
        if Pid.Set.is_empty (Pid.Set.inter s correct) then
          invalid_arg "Omega_k.make: stable set needs a correct member";
        s
    | None -> random_stable_set rng pattern k
  in
  Detector.stabilizing ?name ~family:"omega_k"
    ~default:(fun _ -> Printf.sprintf "omega_%d" k)
    ~rng ?stab_time
    ~stable:(fun _ _ -> stable_set)
    ~chaos:(chaos_set ~n_plus_1 ~k)
    ~render:Pid.Set.to_string ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set ()

let check (d : Pid.Set.t Detector.t) ~pattern ~k ~stab_by ~horizon =
  let all = Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 pattern) in
  Result.bind
    (Detector.first_violation d all ~from:0 ~until:horizon (fun p time s ->
         if Pid.Set.cardinal s = k then None
         else
           Some
             (Format.asprintf "output %a at (%a, %d) has size %d, want %d"
                Pid.Set.pp s Pid.pp p time (Pid.Set.cardinal s) k)))
    (fun () ->
      match Detector.stable_value d pattern ~from:stab_by ~until:horizon with
      | None ->
          Error
            (Printf.sprintf "no common stable set on [%d, %d]" stab_by horizon)
      | Some s ->
          if
            Pid.Set.is_empty (Pid.Set.inter s (Failure_pattern.correct pattern))
          then
            Error
              (Format.asprintf "stable set %a contains no correct process"
                 Pid.Set.pp s)
          else Ok ())
