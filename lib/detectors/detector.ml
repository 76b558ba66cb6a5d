open Kernel

type 'v t = {
  name : string;
  history : Pid.t -> int -> 'v;
  pp : Format.formatter -> 'v -> unit;
  equal : 'v -> 'v -> bool;
  id : 'v Type.Id.t;
}

let record_make ~family ~stab_time =
  Obs.Metrics.incr
    (Obs.Metrics.counter (Printf.sprintf "detectors.created{family=%s}" family));
  Obs.Metrics.set
    (Obs.Metrics.gauge (Printf.sprintf "detectors.stab_time{family=%s}" family))
    (float_of_int stab_time);
  Obs.Metrics.observe_int
    (Obs.Metrics.histogram
       ~buckets:[| 10.; 25.; 50.; 75.; 100.; 150.; 300.; 1000. |]
       (Printf.sprintf "detectors.stab_time_dist{family=%s}" family))
    stab_time

let source t =
  Sim.source ~name:t.name ~sample:t.history
    ~render:(fun v -> Format.asprintf "%a" t.pp v)
    ~equal:t.equal ~id:t.id
let sample t pid time = t.history pid time

let stable_value t pattern ~from ~until =
  let correct = Pid.Set.elements (Failure_pattern.correct pattern) in
  match correct with
  | [] -> None
  | first :: _ ->
      let v = t.history first from in
      let ok =
        List.for_all
          (fun p ->
            let rec check time =
              time > until
              || (t.equal (t.history p time) v && check (time + 1))
            in
            check from)
          correct
      in
      if ok then Some v else None

let map ~name f ~pp ~equal ~id t =
  { name; history = (fun p time -> f (t.history p time)); pp; equal; id }

let mapi ~name f ~pp ~equal ~id t =
  { name; history = (fun p time -> f p time (t.history p time)); pp; equal; id }

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

let pp_pid_set = Pid.Set.pp
let pp_pid = Pid.pp
