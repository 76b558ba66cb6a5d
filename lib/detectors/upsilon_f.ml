open Kernel

let min_size ~n_plus_1 ~f = n_plus_1 - f

let legal_stable_sets ~pattern ~f =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let correct = Failure_pattern.correct pattern in
  Pid.Set.subsets ~n_plus_1
  |> List.filter (fun u ->
         Pid.Set.cardinal u >= min_size ~n_plus_1 ~f
         && not (Pid.Set.equal u correct))

let make ?name ~rng ~pattern ~f ?stable_set ?stab_time () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  if f < 1 || f > n_plus_1 - 1 then invalid_arg "Upsilon_f.make: bad f";
  if not (Failure_pattern.env_ok ~f pattern) then
    invalid_arg "Upsilon_f.make: pattern outside E_f";
  let correct = Failure_pattern.correct pattern in
  let stable_set =
    match stable_set with
    | Some u ->
        if Pid.Set.cardinal u < min_size ~n_plus_1 ~f then
          invalid_arg "Upsilon_f.make: stable set below range size";
        if Pid.Set.equal u correct then
          invalid_arg "Upsilon_f.make: stable set equals correct set";
        u
    | None -> Rng.pick rng (legal_stable_sets ~pattern ~f)
  in
  let stab_time =
    match stab_time with Some t -> t | None -> Rng.int_in rng 0 150
  in
  let seed = Rng.int rng max_int in
  (* default names are deterministic functions of the parameters, so
     identical worlds produce byte-identical traces *)
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "upsilon_f(f=%d,t*=%d)" f stab_time
  in
  Detector.record_make ~family:"upsilon_f" ~stab_time;
  let history pid time =
    if time >= stab_time then stable_set
    else
      Detector.Chaos.subset_at_least ~seed ~n_plus_1
        ~min_size:(min_size ~n_plus_1 ~f) pid time
  in
  {
    Detector.name;
    history;
    pp = Pid.Set.pp;
    equal = Pid.Set.equal;
    id = Sim.Witness.pid_set;
  }

let check (d : Pid.Set.t Detector.t) ~pattern ~f ~stab_by ~horizon =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let correct = Failure_pattern.correct pattern in
  let all = Pid.all ~n_plus_1 in
  let range_violation = ref None in
  for time = 0 to horizon do
    List.iter
      (fun p ->
        let u = Detector.sample d p time in
        if
          Pid.Set.cardinal u < min_size ~n_plus_1 ~f
          && !range_violation = None
        then
          range_violation :=
            Some
              (Format.asprintf "range violated at (%a, %d): %a" Pid.pp p time
                 Pid.Set.pp u))
      all
  done;
  match !range_violation with
  | Some msg -> Error msg
  | None -> (
      match Detector.stable_value d pattern ~from:stab_by ~until:horizon with
      | None ->
          Error
            (Printf.sprintf "no common stable value on [%d, %d]" stab_by
               horizon)
      | Some u ->
          if Pid.Set.equal u correct then
            Error
              (Format.asprintf "stable value %a equals the correct set"
                 Pid.Set.pp u)
          else Ok ())
