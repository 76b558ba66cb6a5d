open Kernel
open Detectors
open Agreement
open Reduction

type measurements = {
  verdict : Sa_spec.verdict;
  last_decision_time : int;
  first_decision_time : int;
  total_steps : int;
  rounds : int;
  outcome : Scheduler.outcome;
  query_violations : int;
      (* run-condition (2) breaches: recorded query values that disagree
         with the detector history; always 0 for a sound simulator *)
}

let ok m = Sa_spec.all_ok m.verdict && m.query_violations = 0

type world = {
  pattern : Failure_pattern.t;
  policy : Policy.t;
  world_rng : Rng.t;
}

let random_world ~seed ~n_plus_1 ~max_faulty ?(latest = 300) () =
  let rng = Rng.create seed in
  let pattern = Failure_pattern.random rng ~n_plus_1 ~max_faulty ~latest in
  { pattern; policy = Policy.random (Rng.split rng); world_rng = rng }

let m_runs = Obs.Metrics.counter "harness.runs"
let m_verdict_ok = Obs.Metrics.counter "harness.verdict.ok"
let m_verdict_fail = Obs.Metrics.counter "harness.verdict.fail"
let m_horizon = Obs.Metrics.counter "harness.outcome.horizon_exhausted"
let m_quiescent = Obs.Metrics.counter "harness.outcome.quiescent"
let m_policy_stop = Obs.Metrics.counter "harness.outcome.policy_stop"
let m_query_violations = Obs.Metrics.counter "harness.query_violations"

let m_decision_time =
  Obs.Metrics.histogram
    ~buckets:[| 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 25000.; 100000. |]
    "harness.last_decision_time"

(* The counters every harness run bumps, whatever it measures. *)
let count ~proto ok =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr
    (Obs.Metrics.counter (Printf.sprintf "harness.runs{proto=%s}" proto));
  Obs.Metrics.incr (if ok then m_verdict_ok else m_verdict_fail)

type 'v replay =
  | History of 'v Detector.t
  | Rebuilt of (unit -> 'v Detector.t)

(* The one place an agreement world runs: [fibers] for every process
   with input [base + pid], the Sa_spec verdict on the decisions, and —
   in one observer, as the run happens — the decision times and the
   replay of the detector queries against their history. A history
   rebuilt after the run is checked then, on the query events alone. *)
let agree ~observers ~label ~k ~base ~horizon ~replay ~fibers ~decisions
    ~rounds world =
  let pattern = world.pattern in
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let violations = ref 0 and queries = ref [] in
  let check src e =
    if Option.is_some (Oracle.query_violation src e) then incr violations
  in
  let check_query =
    match replay with
    | Some (History src) -> check src
    | Some (Rebuilt _) -> (
        function
        | Trace.Step { kind = Sim.Query _; _ } as e -> queries := e :: !queries
        | Trace.Step _ | Trace.Crash _ -> ())
    | None -> ignore
  in
  let first = ref max_int and last = ref 0 in
  let observe e =
    check_query e;
    match Oracle.decision_time e with
    | Some (_, t) ->
        if t < !first then first := t;
        if t > !last then last := t
    | None -> ()
  in
  let result =
    Run.exec ~pattern ~policy:world.policy ~horizon
      ~observers:(observe :: observers)
      ~procs:(fun pid -> fibers ~me:pid ~input:(base + pid))
      ()
  in
  (match replay with
  | Some (Rebuilt source) -> List.iter (check (source ())) !queries
  | Some (History _) | None -> ());
  let proposals = List.map (fun p -> (p, base + p)) (Pid.all ~n_plus_1) in
  let m =
    {
      verdict =
        Sa_spec.check ~k ~pattern ~proposals ~decisions:(decisions ()) ();
      last_decision_time = !last;
      first_decision_time = (if !first = max_int then 0 else !first);
      total_steps = result.steps;
      rounds = rounds ();
      outcome = result.outcome;
      query_violations = !violations;
    }
  in
  count ~proto:label (ok m);
  Obs.Metrics.incr
    (match m.outcome with
    | Scheduler.Horizon -> m_horizon
    | Scheduler.Quiescent -> m_quiescent
    | Scheduler.Policy_stop -> m_policy_stop);
  if m.query_violations > 0 then
    Obs.Metrics.incr ~by:m.query_violations m_query_violations;
  if m.last_decision_time > 0 then
    Obs.Metrics.observe_int m_decision_time m.last_decision_time;
  m

let run_agreement ~label ~k ~base ~horizon ~replay ~fibers ~decisions ~rounds
    world =
  agree ~observers:[] ~label ~k ~base ~horizon ~replay ~fibers ~decisions
    ~rounds world

type protocol =
  | Fig1 of { stab_time : int option; escapes : Upsilon_sa.escapes }
  | Fig2 of { f : int; snapshot : Memory.Snap.impl; pinned : bool }
  | Omega_n of { stab_time : int }
  | Async

type setup = {
  protocol : protocol;
  horizon : int;
  observers : (Trace.event -> unit) list;
}

let default_horizon = 2_000_000
let setup protocol = { protocol; horizon = default_horizon; observers = [] }

(* Figs 1-2, the Ωₙ baseline and the detector-free skeleton, each
   detector drawn from [world.world_rng]. Every protocol object is
   named "t", which only traces record. *)
let run { protocol; horizon; observers } world =
  let rng = world.world_rng and pattern = world.pattern and name = "t" in
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let go label ~k ~base detector proposer decisions rounds p =
    agree ~observers ~label ~k ~base ~horizon
      ~replay:(Option.map (fun d -> History d) detector)
      ~fibers:(fun ~me ~input -> [ proposer p ~me ~input ])
      ~decisions:(fun () -> decisions p)
      ~rounds:(fun () -> rounds p)
      world
  in
  match protocol with
  | Fig1 { stab_time; escapes } ->
      let d = Upsilon.make ~rng ~pattern ?stab_time () in
      go "fig1" ~k:(n_plus_1 - 1) ~base:100 (Some d) Upsilon_sa.proposer
        Upsilon_sa.decisions Upsilon_sa.rounds_entered
        (Upsilon_sa.create ~escapes ~name ~n_plus_1 ~upsilon:d ())
  | Fig2 { f; snapshot; pinned } ->
      let stable_set = if pinned then Some (Pid.Set.full ~n_plus_1) else None in
      let stab_time = if pinned then Some 0 else None in
      let d = Upsilon_f.make ~rng ~pattern ~f ?stable_set ?stab_time () in
      go "fig2" ~k:f ~base:200 (Some d) Upsilon_f_sa.proposer
        Upsilon_f_sa.decisions Upsilon_f_sa.rounds_entered
        (Upsilon_f_sa.create ~snapshot_impl:snapshot ~name ~n_plus_1 ~f
           ~upsilon_f:d ())
  | Omega_n { stab_time } ->
      let k = n_plus_1 - 1 in
      let d = Omega_k.make ~rng ~pattern ~k ~stab_time () in
      go "omega_k" ~k ~base:300 (Some d) Omega_k_sa.proposer
        Omega_k_sa.decisions Omega_k_sa.rounds_entered
        (Omega_k_sa.create ~name ~n_plus_1 ~k ~omega_k:d)
  | Async ->
      go "async" ~k:(n_plus_1 - 1) ~base:500 None Async_attempt.proposer
        Async_attempt.decisions Async_attempt.rounds_entered
        (Async_attempt.create ~name ~n_plus_1)

(* [wfde trace] runs at most this many steps; the skeleton, which never
   decides under lock-step, runs twice the printed events up to it. *)
let trace_horizon = 500_000

let trace_setup ~protocol ~seed ~n_plus_1 ~f ~limit =
  (* the random world, with its detector drawn from a fresh generator
     on the same seed *)
  let random = random_world ~seed ~n_plus_1 ~max_faulty:(n_plus_1 - 1) () in
  let world = { random with world_rng = Rng.create seed } in
  let traced description ?(horizon = trace_horizon) protocol world =
    Some (description, { protocol; horizon; observers = [] }, world)
  in
  match protocol with
  | "fig1" ->
      traced "Fig 1: upsilon-based n-set-agreement"
        (Fig1 { stab_time = None; escapes = Upsilon_sa.all_escapes })
        world
  | "fig2" ->
      let pattern =
        Failure_pattern.random (Rng.create (seed + 1)) ~n_plus_1 ~max_faulty:f
          ~latest:300
      in
      traced "Fig 2: upsilon_f-based f-set-agreement"
        (Fig2 { f; snapshot = Memory.Snap.Registers; pinned = false })
        { world with pattern }
  | "async" ->
      traced "detector-free skeleton under lock-step (the impossibility run)"
        ~horizon:(2 * min limit (trace_horizon / 2))
        Async
        {
          world with
          pattern = Failure_pattern.no_failures ~n_plus_1;
          policy = Policy.round_robin ();
        }
  | _ -> None

(* ------------------------------------------------- model checking *)

type check_violation = {
  cex_pattern : Failure_pattern.t;
  cex_prefix : Pid.t list;
  cex_report : string;
  shrunk : bool;
}

type check_outcome = {
  check_obj : Check.Scenario.obj;
  check_procs : int;
  check_depth : int;
  check_horizon : int;
  check_mutant : Mutant.t option;
  patterns_swept : int;
  executions : int;
  sleep_blocked : int;
  deduped : int;
  races : int;
  backtrack_points : int;
  naive_bound : int;
  violation : check_violation option;
}

let m_check_runs = Obs.Metrics.counter "harness.check.runs"
let m_check_violations = Obs.Metrics.counter "harness.check.violations"

let check_exhaustive ?(jobs = 1) ?procs ?(depth = 6) ?(horizon = 400) ?patterns
    ?(should_stop = fun () -> false) ?(spans = Obs.Span.null) ?mutant obj =
  let procs =
    let floor = Check.Scenario.min_procs obj in
    match procs with Some p -> max p floor | None -> max 2 floor
  in
  let patterns =
    match patterns with
    | Some ps -> ps
    | None -> Check.Scenario.patterns obj ~procs
  in
  (* every world, shrink replays included, is built with the mutant
     planted in it *)
  let make = Check.Scenario.make ?mutant obj ~procs in
  let pool = Exec.Pool.create ~jobs () in
  let replay ~pattern ~prefix =
    let fibers, check = make () in
    let policy = Policy.script prefix ~then_:(Policy.round_robin ()) in
    match check (Run.exec ~pattern ~policy ~horizon ~procs:fibers ()) with
    | Ok () -> None
    | Error report -> Some report
  in
  (* Work units: one DPOR root branch per pattern per initially
     enabled process (probed serially here), falling back to one
     whole-tree unit when there is nothing to shard — same unit
     list at every [jobs], which is what makes -j N byte-identical
     to -j 1. *)
  let probe = Obs.Span.start spans "check.probe" in
  let units =
    patterns
    |> List.mapi (fun pi pattern ->
           let branches =
             if depth = 0 then []
             else Check.Dpor.root_branches ~pattern ~make ()
           in
           match branches with
           | [] -> [ (pi, pattern, None) ]
           | bs -> List.mapi (fun bi _ -> (pi, pattern, Some (bs, bi))) bs)
    |> List.concat |> Array.of_list
  in
  Obs.Span.finish spans probe;
  Obs.Metrics.incr m_check_runs;
  (* Units measure their own wall window and phase aggregates (as
     plain data — a scope is single-writer, so worker domains never
     touch it) and the coordinator converts them to spans after the
     merge, in unit order: the exported structure is identical at
     every [jobs]. *)
  let traced = Obs.Span.enabled spans in
  let results =
    Exec.Pool.map_until pool
      ~stop:(fun (_, _, o, _) -> o.Check.Dpor.counterexample <> None)
      ~f:(fun i ->
        let pi, pattern, branch = units.(i) in
        let phases = ref [] in
        let on_phase =
          if traced then
            Some (fun name us -> phases := (name, us) :: !phases)
          else None
        in
        let t0 = if traced then Obs.Span.now_us () else 0 in
        let o =
          match branch with
          | None ->
              Check.Dpor.explore ~pattern ~depth ~horizon ~should_stop
                ?on_phase ~make ()
          | Some (branches, index) ->
              Check.Dpor.explore_branch ~pattern ~depth ~horizon
                ~should_stop ?on_phase ~branches ~index ~make ()
        in
        let t1 = if traced then Obs.Span.now_us () else 0 in
        (pi, pattern, o, (t0, t1, List.rev !phases)))
      (Array.length units)
  in
  if traced then
    List.iteri
      (fun i (_, _, _, (t0, t1, phases)) ->
        let pi, _, branch = units.(i) in
        let name =
          match branch with
          | None -> Printf.sprintf "dpor.p%d" pi
          | Some (_, bi) -> Printf.sprintf "dpor.p%d.b%d" pi bi
        in
        let uid = Obs.Span.emit spans ~name ~start_us:t0 ~stop_us:t1 () in
        (* phase spans carry durations, not positions: lay them out
           back-to-back from the unit start so the tree still reads
           as a flame graph *)
        let cursor = ref t0 in
        List.iter
          (fun (pname, us) ->
            ignore
              (Obs.Span.emit spans ~parent:uid ~name:pname ~start_us:!cursor
                 ~stop_us:(!cursor + us) ());
            cursor := !cursor + us)
          phases)
      results;
  let zero =
    {
      Check.Dpor.executions = 0;
      sleep_blocked = 0;
      deduped = 0;
      races = 0;
      backtrack_points = 0;
    }
  in
  let stats =
    List.fold_left
      (fun acc (_, _, o, _) -> Check.Dpor.merge_stats acc o.Check.Dpor.stats)
      zero results
  in
  let swept =
    match List.rev results with [] -> 0 | (pi, _, _, _) :: _ -> pi + 1
  in
  let violation =
    match List.rev results with
    | ( _,
        pattern,
        { Check.Dpor.counterexample = Some (prefix, report); _ },
        _ )
      :: _ ->
        Obs.Metrics.incr m_check_violations;
        Some
          (Obs.Span.with_ spans "check.shrink" (fun () ->
               match Check.Shrink.minimize ~replay ~pattern ~prefix with
               | Some (cex_pattern, cex_prefix, cex_report) ->
                   { cex_pattern; cex_prefix; cex_report; shrunk = true }
               | None ->
                   (* replay did not reproduce — report the raw
                      counterexample and flag the failed shrink *)
                   {
                     cex_pattern = pattern;
                     cex_prefix = prefix;
                     cex_report = report;
                     shrunk = false;
                   }))
    | _ -> None
  in
  {
    check_obj = obj;
    check_procs = procs;
    check_depth = depth;
    check_horizon = horizon;
    check_mutant = mutant;
    patterns_swept = swept;
    executions = stats.Check.Dpor.executions;
    sleep_blocked = stats.Check.Dpor.sleep_blocked;
    deduped = stats.Check.Dpor.deduped;
    races = stats.Check.Dpor.races;
    backtrack_points = stats.Check.Dpor.backtrack_points;
    naive_bound = Check.Explore.count_schedules ~n_plus_1:procs ~depth;
    violation;
  }

let check_outcome_json t =
  let module J = Obs.Json in
  let crashes p =
    J.List
      (Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 p)
      |> List.filter_map (fun pid ->
             let time = Failure_pattern.crash_time p pid in
             if time = Failure_pattern.never then None
             else
               Some
                 (J.Obj
                    [ ("pid", J.Int (Pid.to_int pid)); ("time", J.Int time) ])))
  in
  J.Obj
    [
      ("object", J.String (Check.Scenario.to_string t.check_obj));
      ("procs", J.Int t.check_procs);
      ("depth", J.Int t.check_depth);
      ("horizon", J.Int t.check_horizon);
      ( "mutant",
        match t.check_mutant with
        | None -> J.Null
        | Some m -> J.String (Mutant.to_string m) );
      ("patterns_swept", J.Int t.patterns_swept);
      ("executions", J.Int t.executions);
      ("sleep_blocked", J.Int t.sleep_blocked);
      ("deduped", J.Int t.deduped);
      ("races", J.Int t.races);
      ("backtrack_points", J.Int t.backtrack_points);
      ("naive_bound", J.Int t.naive_bound);
      ( "violation",
        match t.violation with
        | None -> J.Null
        | Some v ->
            J.Obj
              [
                ("shrunk", J.Bool v.shrunk);
                ("crashes", crashes v.cex_pattern);
                ( "prefix",
                  J.List
                    (List.map (fun p -> J.Int (Pid.to_int p)) v.cex_prefix) );
                ("report", J.String v.cex_report);
              ] );
    ]

type detectors = Oracle | Heartbeat of Link.config

let run_extraction_of ~f ~source world =
  let horizon = 150_000 and tail = 25_000 in
  let n_plus_1 = Failure_pattern.n_plus_1 world.pattern in
  let rng = world.world_rng in
  let pattern = world.pattern in
  let stab_time = 120 in
  (* Existentially package the detector with its phi map and equality.
     [run_src] is the general form: a live source plus any companion
     fibers it needs (the heartbeat monitors, for implemented
     detectors) and the policy to run under. *)
  let run_src (type v) ~policy ~extra (detector : v Detector.t)
      (equal : v -> v -> bool) (phi : v Phi.map) =
    let ex =
      Extract_upsilon.create ~name:"ex" ~n_plus_1 ~f ~detector ~equal ~phi
    in
    let result =
      Run.exec ~pattern ~policy ~horizon
        ~procs:(fun pid -> extra pid @ Extract_upsilon.fibers ex ~me:pid)
        ()
    in
    let last_time = result.Run.last_time in
    let correct = Failure_pattern.correct pattern in
    let stabilized_at =
      List.fold_left
        (fun acc (pid, time, _) ->
          if Pid.Set.mem pid correct then max acc time else acc)
        0
        (Extract_upsilon.change_log ex)
    in
    let verdict = Extract_upsilon.check ex ~pattern ~last_time ~tail in
    count ~proto:"extraction" (Result.is_ok verdict);
    (verdict, stabilized_at)
  in
  let run detector = run_src ~policy:world.policy ~extra:(fun _ -> []) detector in
  match source with
  | `Omega ->
      run (Omega.make ~rng ~pattern ~stab_time ()) Pid.equal
        (Phi.omega ~n_plus_1 ~f)
  | `Omega_k k ->
      run (Omega_k.make ~rng ~pattern ~k ~stab_time ()) Pid.Set.equal
        (Phi.omega_k ~n_plus_1 ~f ~k)
  | `Ev_perfect Oracle ->
      run (Ev_perfect.make ~rng ~pattern ~stab_time ()) Pid.Set.equal
        (Phi.suspicion ~n_plus_1 ~f)
  | `Ev_perfect (Heartbeat net) ->
      (* An *implemented* ◇P as the stable source: the extraction
         queries the live heartbeat state while the monitors run
         alongside it, and the policy turns fair at GST (bounded
         process speeds are the other half of partial synchrony). *)
      let eng = Hb_ev_perfect.make ~n_plus_1 ~net () in
      run_src
        ~policy:(Policy.fair_after ~gst:net.Link.gst world.policy)
        ~extra:(fun pid -> [ Heartbeat.fiber eng ~me:pid ])
        (Heartbeat.source eng) Pid.Set.equal
        (Phi.suspicion ~n_plus_1 ~f)
  | `Perfect ->
      run (Perfect.make ~pattern) Pid.Set.equal (Phi.suspicion ~n_plus_1 ~f)
  | `Upsilon_f ->
      run (Upsilon_f.make ~rng ~pattern ~f ~stab_time ()) Pid.Set.equal
        (Phi.upsilon_f ~n_plus_1 ~f)
  | `Vitality watched ->
      run (Vitality.make ~rng ~pattern ~watched ~stab_time ()) Bool.equal
        (Phi.vitality ~n_plus_1 ~f ~watched)
  | `Omega_batched w ->
      run (Omega.make ~rng ~pattern ~stab_time ()) Pid.equal
        (Phi.with_batches w (Phi.omega ~n_plus_1 ~f))

(* --------------------------------------------- implemented detectors *)

(* Heartbeat detector alone under a partially synchronous world: run the
   monitors, then check the mode's spec on the reconstructed history
   together with the link-layer contract. Returns the verdict and the
   empirical stabilization time (last suspicion change at any correct
   process). *)
let run_hb_detector ~mode ~net world =
  let n_plus_1 = Failure_pattern.n_plus_1 world.pattern in
  let pattern = world.pattern in
  let horizon = 6_000 in
  let eng =
    match mode with
    | `Ev_perfect -> Hb_ev_perfect.make ~n_plus_1 ~net ()
    | `Ev_strong -> Hb_ev_strong.make ~n_plus_1 ~net ()
  in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.fair_after ~gst:net.Link.gst world.policy)
      ~horizon
      ~procs:(fun pid -> [ Heartbeat.fiber eng ~me:pid ])
      ()
  in
  let last = result.Run.last_time in
  let link = Heartbeat.link eng in
  let verdict =
    Result.bind (Link.check_partial_synchrony link) @@ fun () ->
    Result.bind (Link.check_crash_isolation link ~pattern) @@ fun () ->
    match mode with
    | `Ev_perfect -> Hb_ev_perfect.check eng ~pattern ~horizon:last
    | `Ev_strong -> Hb_ev_strong.check eng ~pattern ~horizon:last
  in
  count ~proto:"hb" (Result.is_ok verdict);
  (verdict, Heartbeat.stabilized_at eng ~only:(Failure_pattern.is_correct pattern))

let run_msg_consensus ~horizon ~detectors world =
  let n_plus_1 = Failure_pattern.n_plus_1 world.pattern in
  let create omega = Msg_consensus.create ~name:"mc" ~n_plus_1 ~omega in
  let proto, monitors, replay, world =
    match detectors with
    | Oracle ->
        let omega = Omega.make ~rng:world.world_rng ~pattern:world.pattern () in
        (create omega, (fun _ -> []), History omega, world)
    | Heartbeat net ->
        (* Ω implemented from heartbeats: the protocol queries the live
           min-unsuspected leader; query replay validates those samples
           against the post-run reconstructed ◇P history lowered through
           the same extraction. *)
        let eng = Hb_ev_perfect.make ~n_plus_1 ~net () in
        let proto = create (Heartbeat.leader_source eng) in
        (* wind the monitors down once every correct process has decided;
           the ABD servers are daemons, so the run then quiesces instead
           of heartbeating to the horizon *)
        let correct =
          Pid.Set.elements (Failure_pattern.correct world.pattern)
        in
        let done_ () =
          let decided = Msg_consensus.decisions proto in
          List.for_all (fun p -> List.mem_assoc p decided) correct
        in
        ( proto,
          (fun me -> [ Heartbeat.fiber ~until:done_ eng ~me ]),
          Rebuilt
            (fun () ->
              Pairwise.omega_of_ev_perfect ~n_plus_1 (Heartbeat.to_detector eng)),
          { world with policy = Policy.fair_after ~gst:net.Link.gst world.policy }
        )
  in
  let m =
    run_agreement ~label:"msg_consensus" ~k:1 ~base:800 ~horizon
      ~replay:(Some replay)
      ~fibers:(fun ~me ~input ->
        monitors me @ Msg_consensus.fibers proto ~me ~input)
      ~decisions:(fun () -> Msg_consensus.decisions proto)
      ~rounds:(fun () ->
        List.fold_left
          (fun acc (_, r) -> max acc r)
          0
          (Msg_consensus.decision_rounds proto))
      world
  in
  (m, Msg_consensus.check_memory proto)
