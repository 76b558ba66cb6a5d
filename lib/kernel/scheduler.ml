type outcome = Horizon | Quiescent | Policy_stop

(* Telemetry: rare events (crashes, stop reasons) use module-level slow
   handles; everything on the per-step path uses Metrics.Fast cells
   owned by the scheduler and absorbed into the registry when the run
   stops (every [`Stopped] exit, [run] return and [trace] flush, and
   manual steppers call [flush_metrics] themselves). Absorption is
   idempotent, so the defensive multi-point flushing never
   double-counts. *)
let m_crashes = Obs.Metrics.counter "kernel.scheduler.crashes"
let m_policy_stops = Obs.Metrics.counter "kernel.scheduler.policy_stops"
let m_quiescent = Obs.Metrics.counter "kernel.scheduler.quiescent_stops"

let kind_tag = function
  | Sim.Read _ -> 0
  | Sim.Write _ -> 1
  | Sim.Query _ -> 2
  | Sim.Output _ -> 3
  | Sim.Input _ -> 4
  | Sim.Nop -> 5
  | Sim.Send _ -> 6
  | Sim.Recv _ -> 7

let kind_counter_names =
  [|
    "kernel.scheduler.steps{kind=read}";
    "kernel.scheduler.steps{kind=write}";
    "kernel.scheduler.steps{kind=query}";
    "kernel.scheduler.steps{kind=output}";
    "kernel.scheduler.steps{kind=input}";
    "kernel.scheduler.steps{kind=nop}";
    "kernel.scheduler.steps{kind=send}";
    "kernel.scheduler.steps{kind=recv}";
  |]

(* Per-pid counter names are only built when a domain's bundle grows to
   a new pid count (not per scheduler creation), so the Printf is off
   the hot path and needs no shared interning table — sharing one across
   pool worker domains would race. *)
let pid_counter_name p = Printf.sprintf "kernel.scheduler.steps{pid=p%d}" (p + 1)

(* Detector instance names embed run parameters ("upsilon_f(f=2,t*=37)");
   collapse to the family so the per-detector label set stays bounded. *)
let detector_family name =
  match String.index_opt name '(' with
  | Some i -> String.sub name 0 i
  | None -> name

(* The fast cells for the step path, shared by every scheduler of a
   domain (model checkers create a scheduler per execution; re-creating
   the cells each time would put a dozen registry lookups on that path).
   Sharing is sound because the buffered values are sums absorbed into
   the same registry cells, and every scheduler flushes at each stopped
   run, so the buffers are empty at unit boundaries. *)
type metric_bundle = {
  b_steps : Obs.Metrics.Fast.counter;
  b_policy_decisions : Obs.Metrics.Fast.counter;
  b_queries : Obs.Metrics.Fast.counter;
  mutable b_by_pid : Obs.Metrics.Fast.counter array; (* grown on demand *)
  b_by_kind : Obs.Metrics.Fast.counter array; (* indexed by kind_tag *)
  (* per-detector query counters, keyed by the raw instance name so the
     hot path never allocates the family substring *)
  b_detectors : (string, Obs.Metrics.Fast.counter) Hashtbl.t;
}

let bundle_key : metric_bundle Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        b_steps = Obs.Metrics.Fast.counter "kernel.scheduler.steps";
        b_policy_decisions =
          Obs.Metrics.Fast.counter "kernel.scheduler.policy_decisions";
        b_queries = Obs.Metrics.Fast.counter "detectors.queries";
        b_by_pid = [||];
        b_by_kind = Array.map Obs.Metrics.Fast.counter kind_counter_names;
        b_detectors = Hashtbl.create 4;
      })

let bundle ~n =
  let b = Domain.DLS.get bundle_key in
  let have = Array.length b.b_by_pid in
  if have < n then
    b.b_by_pid <-
      Array.init n (fun p ->
          if p < have then b.b_by_pid.(p)
          else Obs.Metrics.Fast.counter (pid_counter_name p));
  b

type t = {
  sched_pattern : Failure_pattern.t;
  policy : Policy.t;
  by_pid : Fiber.t array array;
  cursor : int array; (* per-pid rotation among its fibers *)
  crash_recorded : bool array;
  mutable next_crash : int; (* min crash time not yet recorded; max_int = none *)
  mutable clock : int;
  mutable live : int; (* runnable non-daemon fibers; 0 = quiescent *)
  events : Trace.builder;
  ctx : Sim.ctx; (* reused across steps; fields rewritten each step *)
  metrics : metric_bundle;
}

let create ~pattern ~policy ~fibers =
  let n = Failure_pattern.n_plus_1 pattern in
  List.iter
    (fun f ->
      if Fiber.pid f < 0 || Fiber.pid f >= n then
        invalid_arg "Scheduler.create: fiber pid out of range")
    fibers;
  let by_pid =
    Array.init n (fun p ->
        Array.of_list (List.filter (fun f -> Pid.to_int (Fiber.pid f) = p) fibers))
  in
  List.iter Fiber.start fibers;
  let live =
    List.fold_left
      (fun acc f ->
        if Fiber.status f = Fiber.Runnable && not (Fiber.is_daemon f) then
          acc + 1
        else acc)
      0 fibers
  in
  {
    sched_pattern = pattern;
    policy;
    by_pid;
    cursor = Array.make n 0;
    crash_recorded = Array.make n false;
    next_crash =
      (let next = ref max_int in
       for p = 0 to n - 1 do
         let c = Failure_pattern.crash_time pattern p in
         if c < !next then next := c
       done;
       !next);
    clock = 0;
    live;
    events = Trace.builder ();
    ctx = { Sim.pid = 0; now = 0; payload = Sim.No_payload };
    metrics = bundle ~n;
  }

let flush_metrics t =
  let b = t.metrics in
  Obs.Metrics.Fast.absorb_counter b.b_steps;
  Obs.Metrics.Fast.absorb_counter b.b_policy_decisions;
  Obs.Metrics.Fast.absorb_counter b.b_queries;
  Array.iter Obs.Metrics.Fast.absorb_counter b.b_by_pid;
  Array.iter Obs.Metrics.Fast.absorb_counter b.b_by_kind;
  Hashtbl.iter (fun _ f -> Obs.Metrics.Fast.absorb_counter f) b.b_detectors

let detector_counter t detector =
  match Hashtbl.find_opt t.metrics.b_detectors detector with
  | Some f -> f
  | None ->
      let f =
        Obs.Metrics.Fast.counter
          ("detectors.queries{detector=" ^ detector_family detector ^ "}")
      in
      Hashtbl.replace t.metrics.b_detectors detector f;
      f

let now t = t.clock
let pattern t = t.sched_pattern

(* A fiber that was runnable leaves the run: keep [live] in step. *)
let retire t f = if not (Fiber.is_daemon f) then t.live <- t.live - 1

(* Record crash events and kill fibers for processes whose crash time has
   been reached by the prospective step time. The caller skips the scan
   entirely while [step_time < next_crash], so the per-step cost is one
   comparison on crash-free stretches. *)
let process_crashes t step_time =
  let next = ref max_int in
  Array.iteri
    (fun p recorded ->
      if not recorded then begin
        let c = Failure_pattern.crash_time t.sched_pattern p in
        if c <= step_time then begin
          t.crash_recorded.(p) <- true;
          Obs.Metrics.incr m_crashes;
          Trace.record t.events (Trace.Crash { pid = p; time = c });
          Array.iter
            (fun f ->
              if Fiber.status f = Fiber.Runnable then retire t f;
              Fiber.kill f)
            t.by_pid.(p)
        end
        else if c < !next then next := c
      end)
    t.crash_recorded;
  t.next_crash <- !next

let has_runnable t pid =
  let fibers = t.by_pid.(pid) in
  let k = Array.length fibers in
  let rec go i =
    i < k && (Fiber.status fibers.(i) = Fiber.Runnable || go (i + 1))
  in
  go 0

let enabled_pids t =
  let n = Failure_pattern.n_plus_1 t.sched_pattern in
  let rec build p =
    if p >= n then []
    else if has_runnable t p then p :: build (p + 1)
    else build (p + 1)
  in
  build 0

let next_fiber t pid =
  let fibers = t.by_pid.(pid) in
  let k = Array.length fibers in
  let rec search i tried =
    if tried >= k then invalid_arg "Scheduler.next_fiber: no runnable fiber"
    else
      let f = fibers.(i mod k) in
      if Fiber.status f = Fiber.Runnable then begin
        t.cursor.(pid) <- (i + 1) mod k;
        f
      end
      else search (i + 1) (tried + 1)
  in
  search t.cursor.(pid) 0

(* The fiber [next_fiber] would pick, without advancing the cursor. *)
let peek_fiber t pid =
  let fibers = t.by_pid.(pid) in
  let k = Array.length fibers in
  let rec search i tried =
    if tried >= k then None
    else
      let f = fibers.(i mod k) in
      if Fiber.status f = Fiber.Runnable then Some f
      else search (i + 1) (tried + 1)
  in
  search t.cursor.(pid) 0

let iter_pending t f =
  let n = Failure_pattern.n_plus_1 t.sched_pattern in
  for p = 0 to n - 1 do
    match peek_fiber t p with
    | Some fb -> f p (Fiber.pending_kind fb)
    | None -> ()
  done

let pending t =
  let acc = ref [] in
  iter_pending t (fun p k -> acc := (p, k) :: !acc);
  List.rev !acc

let step t =
  try
    let step_time = t.clock + 1 in
    if step_time >= t.next_crash then process_crashes t step_time;
    (* Only daemons, or nothing, left to step: nothing anyone observes
       can move again, so stop without asking for the enabled set. *)
    match if t.live = 0 then [] else enabled_pids t with
    | [] ->
        flush_metrics t;
        Obs.Metrics.incr m_quiescent;
        `Stopped Quiescent
    | enabled -> (
        Obs.Metrics.Fast.incr t.metrics.b_policy_decisions;
        match t.policy ~now:step_time ~enabled with
        | None ->
            flush_metrics t;
            Obs.Metrics.incr m_policy_stops;
            `Stopped Policy_stop
        | Some pid ->
            if not (List.mem pid enabled) then
              invalid_arg "Scheduler.step: policy chose a disabled process";
            t.clock <- step_time;
            let fiber = next_fiber t pid in
            let kind = Fiber.pending_kind fiber in
            let b = t.metrics in
            Obs.Metrics.Fast.incr b.b_steps;
            Obs.Metrics.Fast.incr b.b_by_pid.(pid);
            Obs.Metrics.Fast.incr b.b_by_kind.(kind_tag kind);
            (match kind with
            | Sim.Query { detector } ->
                Obs.Metrics.Fast.incr b.b_queries;
                Obs.Metrics.Fast.incr (detector_counter t detector)
            | _ -> ());
            let ctx = t.ctx in
            ctx.Sim.pid <- pid;
            ctx.Sim.now <- step_time;
            ctx.Sim.payload <- Sim.No_payload;
            Fiber.step fiber ctx;
            if Fiber.status fiber <> Fiber.Runnable then retire t fiber;
            Trace.record t.events
              (Trace.Step
                 { pid; time = step_time; kind; payload = ctx.Sim.payload });
            `Stepped pid)
  with e ->
    (* A raising fiber/policy must not strand this step's buffered Fast
       increments: the bundle is domain-shared and survives
       Obs.Metrics.reset, so unflushed counts would bleed into the next
       pool unit's snapshot. Flush before propagating. *)
    let bt = Printexc.get_raw_backtrace () in
    flush_metrics t;
    Printexc.raise_with_backtrace e bt

let run t ~max_steps =
  let rec loop remaining =
    if remaining = 0 then begin
      flush_metrics t;
      Horizon
    end
    else
      match step t with
      | `Stepped _ -> loop (remaining - 1)
      | `Stopped outcome -> outcome (* step already flushed *)
  in
  loop max_steps

let trace t =
  flush_metrics t;
  Trace.finish t.events

let trace_builder t = t.events
