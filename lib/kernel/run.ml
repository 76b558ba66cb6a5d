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

let fibers ~pattern ~procs =
  Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 pattern)
  |> List.concat_map (fun pid ->
         List.map (fun body -> Fiber.create ~pid body) (procs pid))

let exec ~pattern ~policy ?(horizon = 100_000) ?(observers = []) ~procs () =
  let sched =
    Scheduler.observed ?observe:(observe_all observers) ~pattern ~policy
      ~fibers:(fibers ~pattern ~procs) ()
  in
  of_scheduler sched (Scheduler.run sched ~max_steps:horizon)
