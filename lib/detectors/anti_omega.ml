open Kernel

let make ?name ~rng ~pattern ?spared ?stab_time () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let spared =
    match spared with
    | Some p ->
        if not (Failure_pattern.is_correct pattern p) then
          invalid_arg "Anti_omega.make: spared process must be correct";
        p
    | None -> Rng.pick rng (Pid.Set.elements (Failure_pattern.correct pattern))
  in
  let others =
    Array.of_list
      (List.filter (fun p -> not (Pid.equal p spared)) (Pid.all ~n_plus_1))
  in
  Detector.stabilizing ?name ~family:"anti_omega"
    ~default:(fun _ -> "anti_omega")
    ~rng ?stab_time
    ~stable:(fun _ time -> others.(time mod Array.length others))
    ~chaos:(Detector.Chaos.pid ~n_plus_1)
    ~render:Pid.to_string ~equal:Pid.equal ~id:Sim.Witness.pid ()

let check (d : Pid.t Detector.t) ~pattern ~stab_by ~horizon =
  let correct = Pid.Set.elements (Failure_pattern.correct pattern) in
  let outputs = Hashtbl.create 17 in
  List.iter
    (fun p ->
      for time = stab_by to horizon do
        Hashtbl.replace outputs (Detector.sample d p time) ()
      done)
    correct;
  let spared_exists =
    List.exists (fun p -> not (Hashtbl.mem outputs p)) correct
  in
  if spared_exists then Ok ()
  else
    Error
      (Printf.sprintf
         "every correct process was output somewhere in [%d, %d]" stab_by
         horizon)
