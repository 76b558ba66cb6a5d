open Kernel

let make ?name ~rng ~pattern ?leader ?stab_time () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let leader =
    match leader with
    | Some p ->
        if not (Failure_pattern.is_correct pattern p) then
          invalid_arg "Omega.make: leader must be correct";
        p
    | None -> Rng.pick rng (Pid.Set.elements (Failure_pattern.correct pattern))
  in
  Detector.stabilizing ?name ~family:"omega" ~default:(fun _ -> "omega") ~rng
    ?stab_time
    ~stable:(fun _ _ -> leader)
    ~chaos:(Detector.Chaos.pid ~n_plus_1)
    ~render:Pid.to_string ~equal:Pid.equal ~id:Sim.Witness.pid ()

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
