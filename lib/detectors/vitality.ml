open Kernel

let make ?name ~rng ~pattern ~watched ?stab_time () =
  let stab_time =
    match stab_time with Some t -> t | None -> Rng.int_in rng 0 150
  in
  let seed = Rng.int rng max_int in
  let name =
    match name with
    | Some n -> n
    | None -> Format.asprintf "vitality(%a)" Pid.pp watched
  in
  Detector.record_make ~family:"vitality" ~stab_time;
  let verdict = Failure_pattern.is_correct pattern watched in
  let history pid time =
    if time >= stab_time then verdict
    else Rng.bool (Detector.Chaos.rng ~seed pid time)
  in
  {
    Detector.name;
    history;
    pp = Format.pp_print_bool;
    equal = Bool.equal;
    id = Sim.Witness.bool;
  }

let check (d : bool Detector.t) ~pattern ~watched ~stab_by ~horizon =
  match Detector.stable_value d pattern ~from:stab_by ~until:horizon with
  | None ->
      Error
        (Printf.sprintf "no common stable verdict on [%d, %d]" stab_by horizon)
  | Some verdict ->
      if Bool.equal verdict (Failure_pattern.is_correct pattern watched) then
        Ok ()
      else
        Error
          (Format.asprintf "stable verdict %b disagrees with pattern %a"
             verdict Failure_pattern.pp pattern)
