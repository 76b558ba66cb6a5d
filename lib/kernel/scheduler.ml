type outcome = Horizon | Quiescent | Policy_stop

(* Telemetry: rare events (crashes, stop reasons) use module-level
   handles. The per-step counts stay in the scheduler's own int fields
   and are added to the registry of the domain that created it when
   [run] or [step] returns ([publish]), so a step pays no call into
   [Obs] at all. A scheduler is therefore created and stepped in one
   domain. Fibers suspend only inside [Fiber.start] and [Fiber.step],
   which only the scheduler calls, so it counts their suspensions too. *)
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

let[@inline] add m c n = if n > 0 then Obs.Metrics.add_in m c n

(* A detector's queries in this scheduler not yet published. *)
type detector_count = {
  d_name : string; (* the raw instance name the Query kind carries *)
  d_counter : Obs.Metrics.counter;
  mutable d_n : int;
}

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
  mutable enabled : Pid.Set.t; (* alive pids with a runnable fiber *)
  observe : Trace.event -> unit;
  observing : bool; (* false: build no event at all *)
  retained : Trace.builder option; (* [Some] iff made by [create] *)
  ctx : Sim.ctx; (* reused across steps; fields rewritten each step *)
  metrics : Obs.Metrics.registry; (* the creating domain's *)
  slots : slots;
  (* Counts since the last [publish]. Steps are [clock - published], and
     so are the totals of [pid_steps] and of [kind_steps]; the total of
     queries is the sum of the per-detector counts. *)
  mutable published : int;
  mutable decisions : int;
  mutable suspensions : int;
  pid_steps : int array;
  kind_steps : int array; (* indexed by kind_tag *)
  mutable last_pid : int; (* the latest step's pid and kind_tag *)
  mutable last_tag : int;
  mutable detectors : detector_count list; (* every detector queried *)
  mutable last_detector : detector_count; (* the one queried last *)
}

(* The first runnable fiber's index from [i] on, trying at most [left]
   slots round the ring; -1 when none is. Top-level, because without
   flambda a local [let rec] that captures variables allocates its
   closure on every call. *)
let rec runnable_index fibers i left =
  if left = 0 then -1
  else
    let i = if i = Array.length fibers then 0 else i in
    if Fiber.status fibers.(i) = Fiber.Runnable then i
    else runnable_index fibers (i + 1) (left - 1)

let has_runnable fibers = runnable_index fibers 0 (Array.length fibers) >= 0

let make ~observe ~observing ~retained ~pattern ~policy ~fibers =
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
  let started =
    List.fold_left
      (fun acc f ->
        Fiber.start f;
        if Fiber.status f = Fiber.Runnable then acc + 1 else acc)
      0 fibers
  in
  add metrics m_suspensions started;
  let live =
    List.fold_left
      (fun acc f ->
        if Fiber.status f = Fiber.Runnable && not (Fiber.is_daemon f) then
          acc + 1
        else acc)
      0 fibers
  in
  let slots = slots ~n in
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
    (* kept as fibers finish and crash, so a step does not scan the pids *)
    enabled =
      Pid.Set.of_list
        (List.filter (fun p -> has_runnable by_pid.(p)) (Pid.all ~n_plus_1:n));
    observe;
    observing;
    retained;
    ctx = { Sim.pid = 0; now = 0; payload = Sim.No_payload };
    metrics;
    slots;
    published = 0;
    decisions = 0;
    suspensions = 0;
    pid_steps = Array.make n 0;
    kind_steps = Array.make (Array.length kind_counter_names) 0;
    last_pid = 0;
    last_tag = 0;
    detectors = [];
    (* no Query kind carries this name, and it is never published *)
    last_detector = { d_name = "<none>"; d_counter = slots.s_queries; d_n = 0 };
  }

let observed ?observe ~pattern ~policy ~fibers () =
  make
    ~observe:(Option.value observe ~default:ignore)
    ~observing:(Option.is_some observe) ~retained:None ~pattern ~policy
    ~fibers

let create ~pattern ~policy ~fibers =
  let b = Trace.builder () in
  make ~observe:(Trace.record b) ~observing:true ~retained:(Some b) ~pattern
    ~policy ~fibers

let rec publish_detectors m s = function
  | [] -> ()
  | d :: rest ->
      if d.d_n > 0 then begin
        add m s.s_queries d.d_n;
        add m d.d_counter d.d_n;
        d.d_n <- 0
      end;
      publish_detectors m s rest

(* Add the counts since the last call to the creating domain's registry
   and zero them. A manual [step] publishes after every step; one step
   has counted only its own pid and kind, so no array is scanned then. *)
let publish t =
  let m = t.metrics and s = t.slots in
  let steps = t.clock - t.published in
  add m s.s_steps steps;
  t.published <- t.clock;
  add m s.s_policy_decisions t.decisions;
  t.decisions <- 0;
  add m m_suspensions t.suspensions;
  t.suspensions <- 0;
  if steps = 1 then begin
    add m s.s_by_pid.(t.last_pid) 1;
    t.pid_steps.(t.last_pid) <- 0;
    add m s.s_by_kind.(t.last_tag) 1;
    t.kind_steps.(t.last_tag) <- 0
  end
  else if steps > 1 then begin
    for p = 0 to Array.length t.pid_steps - 1 do
      let n = t.pid_steps.(p) in
      if n > 0 then begin
        add m s.s_by_pid.(p) n;
        t.pid_steps.(p) <- 0
      end
    done;
    for k = 0 to Array.length t.kind_steps - 1 do
      let n = t.kind_steps.(k) in
      if n > 0 then begin
        add m s.s_by_kind.(k) n;
        t.kind_steps.(k) <- 0
      end
    done
  end;
  publish_detectors m s t.detectors

(* The count of a detector other than the last one queried: found by
   name among those this scheduler met, else registered. *)
let switch_detector t detector =
  let d =
    match List.find_opt (fun d -> String.equal d.d_name detector) t.detectors with
    | Some d -> d
    | None ->
        let table = t.slots.s_detectors in
        let counter =
          match Hashtbl.find_opt table detector with
          | Some c -> c
          | None ->
              let c =
                Obs.Metrics.counter
                  ("detectors.queries{detector=" ^ detector_family detector ^ "}")
              in
              Hashtbl.replace table detector c;
              c
        in
        let d = { d_name = detector; d_counter = counter; d_n = 0 } in
        t.detectors <- d :: t.detectors;
        d
  in
  t.last_detector <- d;
  d

let flush_metrics _ = ()
let now t = t.clock

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
          t.enabled <- Pid.Set.remove p t.enabled;
          Obs.Metrics.incr m_crashes;
          if c > t.last_crash then t.last_crash <- c;
          if t.observing then t.observe (Trace.Crash { pid = p; time = c });
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

let next_fiber t pid =
  let fibers = t.by_pid.(pid) in
  let k = Array.length fibers in
  let i = runnable_index fibers t.cursor.(pid) k in
  if i < 0 then invalid_arg "Scheduler.next_fiber: no runnable fiber";
  t.cursor.(pid) <- (if i + 1 = k then 0 else i + 1);
  fibers.(i)

(* The fiber [next_fiber] would pick, without advancing the cursor. *)
let peek_fiber t pid =
  let fibers = t.by_pid.(pid) in
  let i = runnable_index fibers t.cursor.(pid) (Array.length fibers) in
  if i < 0 then None else Some fibers.(i)

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

(* [step_int]'s answer when the run stops: a pid is never negative. *)
let stopped_quiescent = -1
let stopped_policy = -2

(* One step, counted in [t]'s fields only: the pid that stepped, or a
   [stopped_*] code. *)
let step_int t =
  let step_time = t.clock + 1 in
  if step_time >= t.next_crash then process_crashes t step_time;
  (* Only daemons, or nothing, left to step: nothing anyone observes
     can move again, so stop without consulting the policy. *)
  if t.live = 0 then begin
    Obs.Metrics.incr m_quiescent;
    stopped_quiescent
  end
  else begin
    t.decisions <- t.decisions + 1;
    let enabled = t.enabled in
    match t.policy ~now:step_time ~enabled with
    | None ->
        Obs.Metrics.incr m_policy_stops;
        stopped_policy
    | Some pid ->
        if not (Pid.Set.mem pid enabled) then
          invalid_arg "Scheduler.step: policy chose a disabled process";
        t.clock <- step_time;
        let fiber = next_fiber t pid in
        let kind = Fiber.pending_kind fiber in
        t.pid_steps.(pid) <- t.pid_steps.(pid) + 1;
        let tag = kind_tag kind in
        t.kind_steps.(tag) <- t.kind_steps.(tag) + 1;
        t.last_pid <- pid;
        t.last_tag <- tag;
        (match kind with
        | Sim.Query { detector } ->
            let d = t.last_detector in
            let d = if d.d_name == detector then d else switch_detector t detector in
            d.d_n <- d.d_n + 1
        | _ -> ());
        let ctx = t.ctx in
        ctx.Sim.pid <- pid;
        ctx.Sim.now <- step_time;
        ctx.Sim.payload <- Sim.No_payload;
        Fiber.step fiber ctx;
        if Fiber.status fiber = Fiber.Runnable then
          t.suspensions <- t.suspensions + 1
        else begin
          retire t fiber;
          if not (has_runnable t.by_pid.(pid)) then
            t.enabled <- Pid.Set.remove pid t.enabled
        end;
        if t.observing then
          t.observe
            (Trace.Step
               { pid; time = step_time; kind; payload = ctx.Sim.payload });
        pid
  end

let outcome_of code = if code = stopped_quiescent then Quiescent else Policy_stop

(* [f t x], then [publish t], also when [f] raises: a fiber's escaping
   exception leaves the steps before it counted. *)
let publishing f t x =
  match f t x with
  | r ->
      publish t;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      publish t;
      Printexc.raise_with_backtrace e bt

let step t =
  let code = publishing (fun t () -> step_int t) t () in
  if code >= 0 then `Stepped code else `Stopped (outcome_of code)

(* Top-level for the same reason as [runnable_index]. *)
let rec run_steps t remaining =
  if remaining = 0 then Horizon
  else
    let code = step_int t in
    if code >= 0 then run_steps t (remaining - 1) else outcome_of code

let run t ~max_steps = publishing run_steps t max_steps

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
