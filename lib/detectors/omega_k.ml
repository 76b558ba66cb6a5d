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
  let stab_time =
    match stab_time with Some t -> t | None -> Rng.int_in rng 0 150
  in
  let seed = Rng.int rng max_int in
  let name =
    match name with Some n -> n | None -> Printf.sprintf "omega_%d" k
  in
  Detector.record_make ~family:"omega_k" ~stab_time;
  let history pid time =
    if time >= stab_time then stable_set
    else chaos_set ~seed ~n_plus_1 ~k pid time
  in
  {
    Detector.name;
    history;
    pp = Pid.Set.pp;
    equal = Pid.Set.equal;
    id = Sim.Witness.pid_set;
  }

let check (d : Pid.Set.t Detector.t) ~pattern ~k ~stab_by ~horizon =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let all = Pid.all ~n_plus_1 in
  let bad_size = ref None in
  for time = 0 to horizon do
    List.iter
      (fun p ->
        let s = Detector.sample d p time in
        if Pid.Set.cardinal s <> k && !bad_size = None then
          bad_size :=
            Some
              (Format.asprintf "output %a at (%a, %d) has size %d, want %d"
                 Pid.Set.pp s Pid.pp p time (Pid.Set.cardinal s) k))
      all
  done;
  match !bad_size with
  | Some msg -> Error msg
  | None -> (
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
