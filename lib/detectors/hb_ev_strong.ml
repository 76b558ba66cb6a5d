open Kernel

type t = Heartbeat.t

let make ?(name = "hb_ev_strong") ?params ~n_plus_1 ~net () =
  Heartbeat.create ~name ~n_plus_1 ~mode:Heartbeat.Per_target ?params ~net ()

let check ?(min_tail = 20) t ~pattern ~horizon =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let correct =
    List.filter (Failure_pattern.is_correct pattern) (Pid.all ~n_plus_1)
  in
  let faulty = Pid.Set.elements (Failure_pattern.faulty pattern) in
  Result.bind (Heartbeat.stabilization_window ~min_tail t ~pattern ~horizon)
  @@ fun stab_by ->
  let d = Heartbeat.to_detector t in
  (* Strong completeness: from stab_by on, every crashed process is
     suspected by every correct one. *)
  Result.bind
    (Detector.first_violation d correct ~from:stab_by ~until:horizon
       (fun p time got ->
         List.find_opt (fun q -> not (Pid.Set.mem q got)) faulty
         |> Option.map (fun q ->
                Format.asprintf
                  "completeness: at (%a, %d) crashed %a is unsuspected" Pid.pp
                  p time Pid.pp q)))
  @@ fun () ->
  (* Eventual weak accuracy: some correct process is never suspected by
     any correct process from stab_by on. *)
  let trusted q =
    List.for_all
      (fun p ->
        let rec clean time =
          time > horizon
          || ((not (Pid.Set.mem q (Detector.sample d p time)))
             && clean (time + 1))
        in
        clean stab_by)
      correct
  in
  if List.exists trusted correct then Ok ()
  else
    Error
      (Printf.sprintf
         "weak accuracy: every correct process is suspected by some correct \
          process in [%d, %d]"
         stab_by horizon)
