type result = {
  outcome : Scheduler.outcome;
  steps : int;
  last_time : int;
  crashes : (Pid.t * int) list;
}

let of_scheduler sched outcome =
  {
    outcome;
    steps = Scheduler.now sched;
    last_time = Scheduler.last_time sched;
    crashes = Scheduler.crashes sched;
  }

let observe_all = function
  | [] -> None
  | [ o ] -> Some o
  | os -> Some (fun e -> List.iter (fun o -> o e) os)

(* Thread names are a pure function of (pid, thread index), built once
   for the thread indices protocols use; a world rebuilt for every
   explored execution names its fibers without allocating. *)
let thread_names =
  Array.init Pid.max_procs (fun p ->
      Array.init 2 (fun j -> Pid.to_string p ^ "/t" ^ string_of_int j))

let thread_name pid j =
  if j < 2 then thread_names.(Pid.to_int pid).(j)
  else Pid.to_string pid ^ "/t" ^ string_of_int j

let fibers ~pattern ~procs =
  Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 pattern)
  |> List.concat_map (fun pid ->
         List.mapi
           (fun j body -> Fiber.create ~pid ~name:(thread_name pid j) body)
           (procs pid))

let exec ~pattern ~policy ?(horizon = 100_000) ?(observers = []) ~procs () =
  let sched =
    Scheduler.observed ?observe:(observe_all observers) ~pattern ~policy
      ~fibers:(fibers ~pattern ~procs) ()
  in
  of_scheduler sched (Scheduler.run sched ~max_steps:horizon)
