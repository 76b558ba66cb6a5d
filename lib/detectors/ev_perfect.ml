open Kernel

let make ?name ~rng ~pattern ?stab_time () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let stab_time =
    match stab_time with Some t -> t | None -> Rng.int_in rng 0 150
  in
  let seed = Rng.int rng max_int in
  let name = match name with Some n -> n | None -> "ev_perfect" in
  Detector.record_make ~family:"ev_perfect" ~stab_time;
  let history pid time =
    if time >= stab_time then Failure_pattern.crashed_by pattern time
    else if Rng.bool (Detector.Chaos.rng ~seed pid (time + 7919)) then
      (* Chaotic suspicions may be any subset, including the empty one. *)
      Detector.Chaos.subset_at_least ~seed ~n_plus_1 ~min_size:1 pid time
    else Pid.Set.empty
  in
  {
    Detector.name;
    history;
    pp = Pid.Set.pp;
    equal = Pid.Set.equal;
    id = Sim.Witness.pid_set;
  }

let stable_from ~pattern ~stab_time =
  max stab_time (Failure_pattern.max_crash_time pattern + 1)

let check ?(only = fun _ -> true) (d : Pid.Set.t Detector.t) ~pattern ~stab_by
    ~horizon =
  let all = Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 pattern) in
  let observers = List.filter only all in
  let bad = ref None in
  for time = stab_by to horizon do
    let want = Failure_pattern.crashed_by pattern time in
    List.iter
      (fun p ->
        let got = Detector.sample d p time in
        if (not (Pid.Set.equal got want)) && !bad = None then
          bad :=
            Some
              (Format.asprintf "at (%a, %d): got %a, want %a" Pid.pp p time
                 Pid.Set.pp got Pid.Set.pp want))
      observers
  done;
  match !bad with Some msg -> Error msg | None -> Ok ()
