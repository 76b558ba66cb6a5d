open Kernel

let make ?name ~rng ~pattern ~watched ?stab_time () =
  let verdict = Failure_pattern.is_correct pattern watched in
  Detector.stabilizing ?name ~family:"vitality"
    ~default:(fun _ -> Format.asprintf "vitality(%a)" Pid.pp watched)
    ~rng ?stab_time
    ~stable:(fun _ _ -> verdict)
    ~chaos:(fun ~seed pid time -> Rng.bool (Detector.Chaos.rng ~seed pid time))
    ~render:Bool.to_string ~equal:Bool.equal ~id:Sim.Witness.bool ()

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
