type outcome = Horizon | Quiescent | Policy_stop

(* Telemetry: rare events (crashes, stop reasons) use module-level
   handles; the per-step counters go through the registry of the domain
   that created the scheduler, taken once at creation, so a step pays an
   array store per counter and no DLS read. A scheduler is therefore
   created and stepped in one domain. Fibers suspend only inside
   [Fiber.start] and [Fiber.step], which only the scheduler calls, so it
   counts their suspensions too. *)
let m_suspensions = Obs.Metrics.counter "kernel.fiber.suspensions"
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

(* Per-pid counter names are only built when a domain's slots grow to
   a new pid count (not per scheduler creation), so the Printf is off
   the hot path. *)
let pid_counter_name p = Printf.sprintf "kernel.scheduler.steps{pid=p%d}" (p + 1)

(* Detector instance names embed run parameters ("upsilon_f(f=2,t*=37)");
   collapse to the family so the per-detector label set stays bounded. *)
let detector_family name =
  match String.index_opt name '(' with
  | Some i -> String.sub name 0 i
  | None -> name

(* The step counters' slots, per domain: registered when the domain
   creates its first scheduler (so a domain that never schedules lists
   none of them), per pid as the domain meets larger worlds, and per
   detector at a detector's first query. Model checkers create a
   scheduler per execution, so keeping the slots here spares each
   creation a dozen name lookups. *)
type slots = {
  s_steps : Obs.Metrics.counter;
  s_policy_decisions : Obs.Metrics.counter;
  s_queries : Obs.Metrics.counter;
  mutable s_by_pid : Obs.Metrics.counter array; (* grown on demand *)
  s_by_kind : Obs.Metrics.counter array; (* indexed by kind_tag *)
  (* keyed by the raw instance name so the hot path never allocates the
     family substring *)
  s_detectors : (string, Obs.Metrics.counter) Hashtbl.t;
}

let slots_key : slots Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        s_steps = Obs.Metrics.counter "kernel.scheduler.steps";
        s_policy_decisions =
          Obs.Metrics.counter "kernel.scheduler.policy_decisions";
        s_queries = Obs.Metrics.counter "detectors.queries";
        s_by_pid = [||];
        s_by_kind = Array.map Obs.Metrics.counter kind_counter_names;
        s_detectors = Hashtbl.create 4;
      })

let slots ~n =
  let s = Domain.DLS.get slots_key in
  let have = Array.length s.s_by_pid in
  if have < n then
    s.s_by_pid <-
      Array.init n (fun p ->
          if p < have then s.s_by_pid.(p)
          else Obs.Metrics.counter (pid_counter_name p));
  s

type t = {
  sched_pattern : Failure_pattern.t;
  policy : Policy.t;
  by_pid : Fiber.t array array;
  cursor : int array; (* per-pid rotation among its fibers *)
  crash_recorded : bool array;
  mutable next_crash : int; (* min crash time not yet recorded; max_int = none *)
  mutable clock : int;
  mutable last_crash : int; (* latest crash time recorded; 0 = none *)
  mutable live : int; (* runnable non-daemon fibers; 0 = quiescent *)
  observe : Trace.event -> unit;
  retained : Trace.builder option; (* [Some] iff made by [create] *)
  ctx : Sim.ctx; (* reused across steps; fields rewritten each step *)
  metrics : Obs.Metrics.registry; (* the creating domain's *)
  slots : slots;
}

let make ~observe ~retained ~pattern ~policy ~fibers =
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
  let metrics = Obs.Metrics.registry () in
  List.iter
    (fun f ->
      Fiber.start f;
      if Fiber.status f = Fiber.Runnable then
        Obs.Metrics.incr_in metrics m_suspensions)
    fibers;
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
    last_crash = 0;
    live;
    observe;
    retained;
    ctx = { Sim.pid = 0; now = 0; payload = Sim.No_payload };
    metrics;
    slots = slots ~n;
  }

let observed ~observe ~pattern ~policy ~fibers =
  make ~observe ~retained:None ~pattern ~policy ~fibers

let create ~pattern ~policy ~fibers =
  let b = Trace.builder () in
  make ~observe:(Trace.record b) ~retained:(Some b) ~pattern ~policy ~fibers

let detector_counter t detector =
  match Hashtbl.find_opt t.slots.s_detectors detector with
  | Some c -> c
  | None ->
      let c =
        Obs.Metrics.counter
          ("detectors.queries{detector=" ^ detector_family detector ^ "}")
      in
      Hashtbl.replace t.slots.s_detectors detector c;
      c

let flush_metrics _ = ()
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
          if c > t.last_crash then t.last_crash <- c;
          t.observe (Trace.Crash { pid = p; time = c });
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
  let step_time = t.clock + 1 in
  if step_time >= t.next_crash then process_crashes t step_time;
  (* Only daemons, or nothing, left to step: nothing anyone observes
     can move again, so stop without asking for the enabled set. *)
  match if t.live = 0 then [] else enabled_pids t with
  | [] ->
      Obs.Metrics.incr m_quiescent;
      `Stopped Quiescent
  | enabled -> (
      let m = t.metrics and s = t.slots in
      Obs.Metrics.incr_in m s.s_policy_decisions;
      match t.policy ~now:step_time ~enabled with
      | None ->
          Obs.Metrics.incr m_policy_stops;
          `Stopped Policy_stop
      | Some pid ->
          if not (List.mem pid enabled) then
            invalid_arg "Scheduler.step: policy chose a disabled process";
          t.clock <- step_time;
          let fiber = next_fiber t pid in
          let kind = Fiber.pending_kind fiber in
          Obs.Metrics.incr_in m s.s_steps;
          Obs.Metrics.incr_in m s.s_by_pid.(pid);
          Obs.Metrics.incr_in m s.s_by_kind.(kind_tag kind);
          (match kind with
          | Sim.Query { detector } ->
              Obs.Metrics.incr_in m s.s_queries;
              Obs.Metrics.incr_in m (detector_counter t detector)
          | _ -> ());
          let ctx = t.ctx in
          ctx.Sim.pid <- pid;
          ctx.Sim.now <- step_time;
          ctx.Sim.payload <- Sim.No_payload;
          Fiber.step fiber ctx;
          if Fiber.status fiber = Fiber.Runnable then
            Obs.Metrics.incr_in m m_suspensions
          else retire t fiber;
          t.observe
            (Trace.Step
               { pid; time = step_time; kind; payload = ctx.Sim.payload });
          `Stepped pid)

let run t ~max_steps =
  let rec loop remaining =
    if remaining = 0 then Horizon
    else
      match step t with
      | `Stepped _ -> loop (remaining - 1)
      | `Stopped outcome -> outcome
  in
  loop max_steps

(* A crash is recorded when the clock is about to reach it, so a run
   that stops there (quiescent or policy stop) ends one tick past the
   clock. *)
let last_time t = max t.clock t.last_crash

let crashes t =
  let acc = ref [] in
  for p = Array.length t.crash_recorded - 1 downto 0 do
    if t.crash_recorded.(p) then
      acc := (p, Failure_pattern.crash_time t.sched_pattern p) :: !acc
  done;
  !acc

let trace t =
  match t.retained with
  | Some b -> Trace.finish b
  | None -> invalid_arg "Scheduler.trace: the events went to an observer"
