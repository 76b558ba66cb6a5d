type result = {
  outcome : Scheduler.outcome;
  events : Trace.builder;
  steps : int;
}

let exec ~pattern ~policy ?(horizon = 100_000) ~procs () =
  let fibers =
    Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 pattern)
    |> List.concat_map (fun pid ->
           List.mapi
             (fun j body ->
               let name = Format.asprintf "%a/t%d" Pid.pp pid j in
               Fiber.create ~pid ~name body)
             (procs pid))
  in
  let sched = Scheduler.create ~pattern ~policy ~fibers in
  let outcome = Scheduler.run sched ~max_steps:horizon in
  {
    outcome;
    events = Scheduler.trace_builder sched;
    steps = Scheduler.now sched;
  }

let trace r = Trace.finish r.events
let iter r f = Trace.iter_builder r.events f

let last_time r =
  let last = ref 0 in
  iter r (function Trace.Step { time; _ } | Trace.Crash { time; _ } ->
      if time > !last then last := time);
  !last
