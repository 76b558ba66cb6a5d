open Kernel

let make ?name ~rng ~pattern ?leader ?stab_time () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let correct = Failure_pattern.correct pattern in
  let leader =
    match leader with
    | Some p ->
        if not (Failure_pattern.is_correct pattern p) then
          invalid_arg "Omega.make: leader must be correct";
        p
    | None -> Rng.pick rng (Pid.Set.elements correct)
  in
  let stab_time =
    match stab_time with Some t -> t | None -> Rng.int_in rng 0 150
  in
  let seed = Rng.int rng max_int in
  let name = match name with Some n -> n | None -> "omega" in
  Detector.record_make ~family:"omega" ~stab_time;
  let history pid time =
    if time >= stab_time then leader
    else Detector.Chaos.pid ~seed ~n_plus_1 pid time
  in
  {
    Detector.name;
    history;
    pp = Pid.pp;
    equal = Pid.equal;
    id = Sim.Witness.pid;
  }

let check (d : Pid.t Detector.t) ~pattern ~stab_by ~horizon =
  match Detector.stable_value d pattern ~from:stab_by ~until:horizon with
  | None ->
      Error
        (Printf.sprintf "no common stable leader on [%d, %d]" stab_by horizon)
  | Some leader ->
      if Failure_pattern.is_correct pattern leader then Ok ()
      else
        Error
          (Format.asprintf "stable leader %a is faulty" Pid.pp leader)
