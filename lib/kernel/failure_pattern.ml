type t = {
  n_plus_1 : int;
  crash_time : int array;
  crash_sets : (int * Pid.Set.t) array;
      (* F(t) at each distinct crash time, ascending: F is constant
         between them, so [crashed_by] can return these shared sets *)
}

let never = max_int

let make ~n_plus_1 ~crashes =
  if n_plus_1 <= 0 then invalid_arg "Failure_pattern.make: empty system";
  if n_plus_1 > Pid.max_procs then
    invalid_arg
      (Printf.sprintf "Failure_pattern.make: at most %d processes"
         Pid.max_procs);
  let crash_time = Array.make n_plus_1 never in
  List.iter
    (fun (pid, time) ->
      if pid < 0 || pid >= n_plus_1 then
        invalid_arg "Failure_pattern.make: pid out of range";
      if time < 0 then invalid_arg "Failure_pattern.make: negative crash time";
      if crash_time.(pid) <> never then
        invalid_arg "Failure_pattern.make: duplicate pid";
      crash_time.(pid) <- time)
    crashes;
  if Array.for_all (fun c -> c <> never) crash_time then
    invalid_arg "Failure_pattern.make: at least one process must be correct";
  let times =
    Array.to_list crash_time
    |> List.filter (fun c -> c <> never)
    |> List.sort_uniq Int.compare
  in
  let f_at time =
    Pid.all ~n_plus_1
    |> List.filter (fun p -> crash_time.(p) <= time)
    |> Pid.Set.of_list
  in
  let crash_sets = Array.of_list (List.map (fun c -> (c, f_at c)) times) in
  { n_plus_1; crash_time; crash_sets }

let no_failures ~n_plus_1 = make ~n_plus_1 ~crashes:[]

let random rng ~n_plus_1 ~max_faulty ~latest =
  if max_faulty >= n_plus_1 || max_faulty < 0 then
    invalid_arg "Failure_pattern.random: max_faulty out of range";
  let k = Rng.int rng (max_faulty + 1) in
  let pids = Array.of_list (Pid.all ~n_plus_1) in
  Rng.shuffle rng pids;
  let crashes =
    List.init k (fun i -> (pids.(i), Rng.int_in rng 0 latest))
  in
  make ~n_plus_1 ~crashes

let n_plus_1 t = t.n_plus_1
let crash_time t pid = t.crash_time.(pid)
let crashed_at t pid time = t.crash_time.(pid) <= time

let crashed_by t time =
  (* the last entry at or before [time]; a handful of entries at most *)
  let rec find i acc =
    if i = Array.length t.crash_sets then acc
    else
      let c, set = t.crash_sets.(i) in
      if c <= time then find (i + 1) set else acc
  in
  find 0 Pid.Set.empty

let faulty t =
  Pid.all ~n_plus_1:t.n_plus_1
  |> List.filter (fun p -> t.crash_time.(p) <> never)
  |> Pid.Set.of_list

let correct t = Pid.Set.complement ~n_plus_1:t.n_plus_1 (faulty t)
let is_correct t pid = t.crash_time.(pid) = never

let max_crash_time t =
  Array.fold_left
    (fun acc c -> if c <> never && c > acc then c else acc)
    0 t.crash_time

let env_ok ~f t = Pid.Set.cardinal (faulty t) <= f

let pp ppf t =
  let crashes =
    Pid.all ~n_plus_1:t.n_plus_1
    |> List.filter_map (fun p ->
           if t.crash_time.(p) = never then None
           else Some (Format.asprintf "%a@%d" Pid.pp p t.crash_time.(p)))
  in
  match crashes with
  | [] -> Format.fprintf ppf "failure-free(%d procs)" t.n_plus_1
  | l ->
      Format.fprintf ppf "crashes[%s](%d procs)" (String.concat ", " l)
        t.n_plus_1
