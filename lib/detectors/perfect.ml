open Kernel

let make ~pattern =
  {
    Detector.name = "perfect";
    history = (fun _pid time -> Failure_pattern.crashed_by pattern time);
    pp = Pid.Set.pp;
    equal = Pid.Set.equal;
    id = Sim.Witness.pid_set;
  }

let check (d : Pid.Set.t Detector.t) ~pattern ~horizon =
  let all = Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 pattern) in
  let bad = ref None in
  for time = 0 to horizon do
    List.iter
      (fun p ->
        let want = Failure_pattern.crashed_by pattern time in
        let got = Detector.sample d p time in
        if (not (Pid.Set.equal got want)) && !bad = None then
          bad :=
            Some
              (Format.asprintf "at (%a, %d): got %a, want %a" Pid.pp p time
                 Pid.Set.pp got Pid.Set.pp want))
      all
  done;
  match !bad with Some msg -> Error msg | None -> Ok ()
