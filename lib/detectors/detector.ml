open Kernel

type 'v t = 'v Sim.source

let record_make ~family ~stab_time =
  Obs.Metrics.incr
    (Obs.Metrics.counter (Printf.sprintf "detectors.created{family=%s}" family));
  Obs.Metrics.observe_int
    (Obs.Metrics.histogram
       ~buckets:[| 10.; 25.; 50.; 75.; 100.; 150.; 300.; 1000. |]
       (Printf.sprintf "detectors.stab_time{family=%s}" family))
    stab_time

let stabilizing ?name ~family ~default ~rng ?stab_time ~stable ~chaos ~render
    ~equal ~id () =
  let stab_time =
    match stab_time with Some t -> t | None -> Rng.int_in rng 0 150
  in
  let chaos = chaos ~seed:(Rng.int rng max_int) in
  let name = match name with Some n -> n | None -> default stab_time in
  record_make ~family ~stab_time;
  Sim.source ~name
    ~sample:(fun pid time ->
      if time >= stab_time then stable pid time else chaos pid time)
    ~render ~equal ~id

let source t = t
let sample (t : _ t) pid time = t.sample pid time

let first_violation (t : _ t) pids ~from ~until bad =
  let rec at time = function
    | _ when time > until -> Ok ()
    | [] -> at (time + 1) pids
    | p :: rest -> (
        match bad p time (t.sample p time) with
        | Some msg -> Error msg
        | None -> at time rest)
  in
  at from pids

let stable_value (t : _ t) pattern ~from ~until =
  let correct = Pid.Set.elements (Failure_pattern.correct pattern) in
  match correct with
  | [] -> None
  | first :: _ ->
      let v = t.sample first from in
      let ok =
        List.for_all
          (fun p ->
            let rec check time =
              time > until || (t.equal (t.sample p time) v && check (time + 1))
            in
            check from)
          correct
      in
      if ok then Some v else None

let map ~name f ~render ~equal ~id (t : _ t) =
  Sim.source ~name ~sample:(fun p time -> f (t.sample p time)) ~render ~equal ~id

let mapi ~name f ~render ~equal ~id (t : _ t) =
  Sim.source ~name
    ~sample:(fun p time -> f p time (t.sample p time))
    ~render ~equal ~id

module Chaos = struct
  (* Key the stream on (seed, pid, t) so the history is a pure function.
     The multipliers are odd 64-bit constants; any good mix works. *)
  let rng ~seed pid time =
    Rng.create ((seed * 0x2545F491) lxor ((pid + 1) * 0x9E3779B9) lxor ((time + 1) * 0x85EBCA6B))

  let subset_at_least ~seed ~n_plus_1 ~min_size pid time =
    if min_size > n_plus_1 then invalid_arg "Chaos.subset_at_least";
    let r = rng ~seed pid time in
    let size = Rng.int_in r (max 1 min_size) n_plus_1 in
    let pids = Array.of_list (Pid.all ~n_plus_1) in
    Rng.shuffle r pids;
    Pid.Set.of_list (Array.to_list (Array.sub pids 0 size))

  let pid ~seed ~n_plus_1 p time =
    let r = rng ~seed p time in
    Rng.int r n_plus_1
end
