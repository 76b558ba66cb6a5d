(* The model-checking layer: Wing–Gong linearizability on forged and
   recorded histories, ddmin shrinking, the DPOR pruning bound, and the
   three planted substrate mutants — each must be caught with a shrunk,
   replayable counterexample, and the unmutated objects must pass. A
   mutant stays inside the worlds its check builds: concurrent work,
   mutated or clean, is unaffected. *)

open Kernel
open Check

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let is_ok = function Ok () -> true | Error _ -> false

(* ------------------------------------------------------------- Lin --- *)

let reg_spec = Histories.register_spec ~init:0

let wr v ~at ~pid =
  Lin.completed ~op:(Histories.Reg_write v) ~result:Histories.Reg_unit
    ~invoked:at ~responded:at ~pid

let rd v ~invoked ~responded ~pid =
  Lin.completed ~op:Histories.Reg_read ~result:(Histories.Reg_val v) ~invoked
    ~responded ~pid

let test_lin_sequential () =
  checkb "write;read linearizable" true
    (is_ok (Lin.check reg_spec [ wr 1 ~at:1 ~pid:0; rd 1 ~invoked:2 ~responded:3 ~pid:0 ]));
  checkb "stale read rejected" false
    (is_ok (Lin.check reg_spec [ wr 1 ~at:1 ~pid:0; rd 0 ~invoked:2 ~responded:3 ~pid:0 ]));
  checkb "empty history" true (is_ok (Lin.check reg_spec []))

let test_lin_overlap () =
  (* overlapping write and read: both orders legal, either value ok *)
  let history v =
    [ wr 5 ~at:4 ~pid:0; rd v ~invoked:3 ~responded:6 ~pid:1 ]
  in
  checkb "overlapping read of new value" true (is_ok (Lin.check reg_spec (history 5)));
  checkb "overlapping read of old value" true (is_ok (Lin.check reg_spec (history 0)))

let test_lin_new_old_inversion () =
  (* reads in real-time order seeing new then old: the classic
     atomicity violation *)
  let history =
    [
      wr 7 ~at:2 ~pid:0;
      rd 7 ~invoked:3 ~responded:4 ~pid:1;
      rd 0 ~invoked:5 ~responded:6 ~pid:1;
    ]
  in
  checkb "new/old inversion rejected" false (is_ok (Lin.check reg_spec history))

let test_lin_pending_may_apply () =
  let p = Lin.pending ~op:(Histories.Reg_write 9) ~invoked:1 ~pid:0 in
  checkb "pending write may take effect" true
    (is_ok (Lin.check reg_spec [ p; rd 9 ~invoked:2 ~responded:3 ~pid:1 ]));
  checkb "pending write may never take effect" true
    (is_ok (Lin.check reg_spec [ p; rd 0 ~invoked:2 ~responded:3 ~pid:1 ]));
  (* but it takes effect at most once: 9 then 0 then 9 again is not
     explainable by one pending write *)
  checkb "pending write applies at most once" false
    (is_ok
       (Lin.check reg_spec
          [
            p;
            rd 9 ~invoked:2 ~responded:3 ~pid:1;
            rd 0 ~invoked:4 ~responded:5 ~pid:1;
            rd 9 ~invoked:6 ~responded:7 ~pid:1;
          ]))

let test_lin_pending_before_invocation () =
  (* a pending op cannot be linearized before its own invocation *)
  checkb "effect not before invocation" false
    (is_ok
       (Lin.check reg_spec
          [
            Lin.pending ~op:(Histories.Reg_write 9) ~invoked:5 ~pid:0;
            rd 9 ~invoked:1 ~responded:2 ~pid:1;
          ]))

let test_lin_event_limit () =
  let history =
    List.init 63 (fun i -> wr i ~at:i ~pid:0)
  in
  Alcotest.check_raises "63 events rejected"
    (Invalid_argument "Lin.check: more than 62 events") (fun () ->
      ignore (Lin.check reg_spec history))

(* ------------------------------------------------------- histories --- *)

let test_logged_register_history () =
  let log = Histories.log () in
  let reg = Memory.Register.create ~name:"r" 0 in
  let body pid () =
    if pid = 0 then Histories.logged_write log reg ~me:pid 42
    else ignore (Histories.logged_read log reg ~me:pid)
  in
  let result =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:2)
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  ignore result;
  let events = Histories.events log in
  checki "two events" 2 (List.length events);
  checkb "history linearizable" true
    (is_ok (Lin.check (Histories.register_spec ~init:0) events));
  List.iter
    (fun e ->
      checkb "completed" true (e.Lin.result <> None);
      checkb "interval sane" true (e.Lin.invoked <= e.Lin.responded))
    events

let test_abd_history_pending () =
  (* a seeded attempt with no completed write surfaces as pending *)
  let abd = Memory.Abd.create ~name:"a" ~n_plus_1:3 ~init:0 in
  Memory.Abd.unsafe_attempt abd ~key:"x"
    ~tag:{ Memory.Abd.seq = 1; writer = 2 }
    5 ~invoked:0;
  let events = Histories.abd_history abd in
  checki "one pending event" 1 (List.length events);
  match events with
  | [ e ] ->
      checkb "pending" true (e.Lin.result = None);
      checkb "write of 5" true (e.Lin.op = Histories.Abd_write { key = "x"; value = 5 })
  | _ -> Alcotest.fail "expected exactly one event"

(* ----------------------------------------------------------- ddmin --- *)

let test_ddmin_minimal_pair () =
  (* failure needs 3 and 7 both present: ddmin must isolate exactly them *)
  let test xs = List.mem 3 xs && List.mem 7 xs in
  Alcotest.check
    (Alcotest.list Alcotest.int)
    "isolates the pair" [ 3; 7 ]
    (Shrink.ddmin ~test [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_ddmin_empty_and_singleton () =
  let always _ = true in
  Alcotest.check (Alcotest.list Alcotest.int) "empty input" [] (Shrink.ddmin ~test:always []);
  Alcotest.check (Alcotest.list Alcotest.int) "vacuous failure" []
    (Shrink.ddmin ~test:always [ 1; 2; 3 ]);
  let needs_all xs = List.length xs >= 3 in
  checki "irreducible input survives" 3
    (List.length (Shrink.ddmin ~test:needs_all [ 1; 2; 3 ]))

let test_minimize_synthetic () =
  (* replay "fails" iff the prefix holds two p2-entries and p1 is
     crashed; minimize must drop the noise entries and the other crash *)
  let replay ~pattern ~prefix =
    let crashed p = Failure_pattern.crash_time pattern p <> Failure_pattern.never in
    if crashed 0 && List.length (List.filter (fun p -> p = 1) prefix) >= 2 then
      Some "boom"
    else None
  in
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 5); (2, 9) ] in
  match Shrink.minimize ~replay ~pattern ~prefix:[ 0; 1; 2; 1; 0; 1 ] with
  | None -> Alcotest.fail "minimize lost the failure"
  | Some (pat, prefix, report) ->
      Alcotest.check (Alcotest.string) "report" "boom" report;
      Alcotest.check (Alcotest.list Alcotest.int) "minimal prefix" [ 1; 1 ] prefix;
      checkb "p1 crash kept" true
        (Failure_pattern.crash_time pat 0 <> Failure_pattern.never);
      checkb "p3 crash dropped" true
        (Failure_pattern.crash_time pat 2 = Failure_pattern.never)

let test_minimize_rejects_nonreproducing () =
  let replay ~pattern:_ ~prefix:_ = None in
  checkb "non-reproducing input refused" true
    (Shrink.minimize ~replay
       ~pattern:(Failure_pattern.no_failures ~n_plus_1:2)
       ~prefix:[ 0; 1 ]
    = None)

(* ------------------------------------------------- clean scenarios --- *)

let test_clean_scenarios_pass () =
  List.iter
    (fun (obj, procs, depth) ->
      let o = Wfde.Harness.check_exhaustive ~procs ~depth obj in
      checkb
        (Printf.sprintf "%s clean" (Scenario.to_string obj))
        true
        (o.Wfde.Harness.violation = None))
    [
      (Scenario.Register, 2, 6);
      (Scenario.Snapshot, 2, 6);
      (Scenario.Commit_adopt, 2, 6);
      (Scenario.Abd, 3, 5);
    ]

(* --------------------------------------------------------- mutants --- *)

(* Catch the mutant, then replay its shrunk counterexample from scratch
   through Policy.script to prove the report is reproducible. *)
let assert_mutant_caught ~mutant ~obj ~procs ~depth =
  let o = Wfde.Harness.check_exhaustive ~procs ~depth ~mutant obj in
  match o.Wfde.Harness.violation with
  | None ->
      Alcotest.failf "%s not caught on %s" (Mutant.to_string mutant)
        (Scenario.to_string obj)
  | Some v ->
      checkb "shrunk and confirmed" true v.Wfde.Harness.shrunk;
      let replayed =
        let fibers, check = Scenario.make ~mutant obj ~procs () in
        let result =
          Run.exec ~pattern:v.Wfde.Harness.cex_pattern
            ~policy:
              (Policy.script v.Wfde.Harness.cex_prefix
                 ~then_:(Policy.round_robin ()))
            ~horizon:o.Wfde.Harness.check_horizon ~procs:fibers ()
        in
        check result
      in
      (match replayed with
      | Error report ->
          Alcotest.check Alcotest.string "replay reproduces the report"
            v.Wfde.Harness.cex_report report
      | Ok () -> Alcotest.fail "shrunk counterexample did not replay");
      (* the planted bug must not be blamed on crashes it does not need:
         drop-phase2 and single-collect fail crash-free *)
      if mutant <> Mutant.Abd_skip_write_back then
        checkb "no crashes needed" true
          (Failure_pattern.correct v.Wfde.Harness.cex_pattern
          |> Pid.Set.cardinal
          = Failure_pattern.n_plus_1 v.Wfde.Harness.cex_pattern)

let test_mutant_drop_phase2 () =
  assert_mutant_caught ~mutant:Mutant.Converge_drop_phase2
    ~obj:Scenario.Commit_adopt ~procs:2 ~depth:6

let test_mutant_single_collect () =
  assert_mutant_caught ~mutant:Mutant.Snapshot_single_collect
    ~obj:Scenario.Snapshot ~procs:3 ~depth:12

let test_mutant_skip_write_back () =
  assert_mutant_caught ~mutant:Mutant.Abd_skip_write_back ~obj:Scenario.Abd
    ~procs:3 ~depth:6

let test_mutant_names_roundtrip () =
  List.iter
    (fun m ->
      match Mutant.of_string (Mutant.to_string m) with
      | Ok m' -> checkb (Mutant.to_string m) true (m = m')
      | Error e -> Alcotest.fail e)
    Mutant.all;
  checkb "unknown rejected" true (Result.is_error (Mutant.of_string "nope"))

(* ------------------------------------------------ mutant isolation --- *)

let render_e1 () =
  Format.asprintf "%a" Wfde.Report.render
    (Wfde.Experiments.e1_fig1_set_agreement ()).Wfde.Experiments.table

(* A mutant lives in the worlds its check builds and nowhere else: while
   another domain keeps catching converge-drop-phase2 on commit-adopt,
   E1 (k-converge over snapshots, the objects that mutant and
   snapshot-single-collect break) renders exactly its solo table. E1 is
   re-run until the looping domain finished checks during one run, so
   the overlap is witnessed, not assumed. *)
let test_mutant_does_not_leak () =
  let solo = render_e1 () in
  let stop = Atomic.make false in
  let checks = Atomic.make 0 in
  let all_caught = Atomic.make true in
  let looper =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let o =
            Wfde.Harness.check_exhaustive ~mutant:Mutant.Converge_drop_phase2
              Scenario.Commit_adopt
          in
          if o.Wfde.Harness.violation = None then Atomic.set all_caught false;
          Atomic.incr checks
        done)
  in
  let rec race tries =
    let before = Atomic.get checks in
    Alcotest.check Alcotest.string "e1 table beside a mutant check" solo
      (render_e1 ());
    if Atomic.get checks - before < 2 && tries > 1 then race (tries - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join looper)
    (fun () ->
      while Atomic.get checks = 0 do
        Domain.cpu_relax ()
      done;
      race 50);
  checkb "the looping checks all caught their mutant" true
    (Atomic.get all_caught)

(* Every scenario under no mutant and under each of the five, as one
   pool batch: the outcomes must not depend on which checks share the
   pool's workers, nor on how many workers there are. At two processes
   exactly the three on-target mutants that need no third process are
   caught, so live mutants really do run beside clean checks. *)
let test_mixed_mutant_batch () =
  let units =
    List.concat_map
      (fun obj ->
        List.map (fun m -> (obj, m)) (None :: List.map Option.some Mutant.all))
      Scenario.all
    |> Array.of_list
  in
  let check i =
    let obj, mutant = units.(i) in
    let procs = max 2 (Scenario.min_procs obj) in
    Wfde.Harness.check_exhaustive ~procs ~depth:5 ~horizon:500 ?mutant obj
  in
  let render o = Obs.Json.to_string (Wfde.Harness.check_outcome_json o) in
  let solo = List.init (Array.length units) check in
  let caught =
    List.filter_map
      (fun o ->
        match (o.Wfde.Harness.check_mutant, o.Wfde.Harness.violation) with
        | Some m, Some _ ->
            Some
              (Scenario.to_string o.Wfde.Harness.check_obj
              ^ " " ^ Mutant.to_string m)
        | _ -> None)
      solo
  in
  let hb = Scenario.to_string (Scenario.Hb_detector Scenario.default_chaos) in
  Alcotest.check
    Alcotest.(list string)
    "caught pairs"
    [
      "commit-adopt converge-drop-phase2";
      hb ^ " hb-timeout-never-increased";
      hb ^ " hb-suspected-not-restored";
    ]
    caught;
  let solo = List.map render solo in
  List.iter
    (fun jobs ->
      let batch =
        Exec.Pool.map (Exec.Pool.create ~jobs ())
          ~f:(fun i -> render (check i))
          (Array.length units)
      in
      Alcotest.check
        Alcotest.(list string)
        (Printf.sprintf "batch at jobs %d = serial solo runs" jobs)
        solo batch)
    [ 1; 4; 8 ]

(* ---------------------------------------------------- 1-minimality --- *)

(* Satellite property of the shrinker: on every planted mutant's shrunk
   counterexample, removing any single schedule entry or any single
   crash makes the bug vanish under Policy.script replay. The shrink
   fixpoint (pattern pass and ddmin pass alternate until neither
   changes) is what guarantees this jointly, not per-side. *)

let replay_fails ~mutant ~obj ~procs ~horizon ~pattern ~prefix =
  let fibers, check = Scenario.make ~mutant obj ~procs () in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.script prefix ~then_:(Policy.round_robin ()))
      ~horizon ~procs:fibers ()
  in
  Result.is_error (check result)

let drop_nth n xs = List.filteri (fun i _ -> i <> n) xs

let assert_one_minimal ~mutant ~obj ~procs ~depth =
  let o = Wfde.Harness.check_exhaustive ~procs ~depth ~mutant obj in
  match o.Wfde.Harness.violation with
  | None -> Alcotest.failf "%s not caught" (Mutant.to_string mutant)
  | Some v ->
      let pattern = v.Wfde.Harness.cex_pattern in
      let prefix = v.Wfde.Harness.cex_prefix in
      let horizon = o.Wfde.Harness.check_horizon in
      checkb "shrunk" true v.Wfde.Harness.shrunk;
      checkb "shrunk pair still fails" true
        (replay_fails ~mutant ~obj ~procs ~horizon ~pattern ~prefix);
      List.iteri
        (fun i _ ->
          checkb
            (Printf.sprintf "dropping schedule entry %d/%d cures it" i
               (List.length prefix))
            false
            (replay_fails ~mutant ~obj ~procs ~horizon ~pattern
               ~prefix:(drop_nth i prefix)))
        prefix;
      let n_plus_1 = Failure_pattern.n_plus_1 pattern in
      for p = 0 to n_plus_1 - 1 do
        let t = Failure_pattern.crash_time pattern p in
        if t <> Failure_pattern.never then begin
          let crashes =
            List.filter_map
              (fun q ->
                if q = p then None
                else
                  let tq = Failure_pattern.crash_time pattern q in
                  if tq = Failure_pattern.never then None else Some (q, tq))
              (List.init n_plus_1 Fun.id)
          in
          let pattern' = Failure_pattern.make ~n_plus_1 ~crashes in
          checkb
            (Printf.sprintf "dropping crash of p%d cures it" (p + 1))
            false
            (replay_fails ~mutant ~obj ~procs ~horizon ~pattern:pattern'
               ~prefix)
        end
      done

let test_one_minimal_drop_phase2 () =
  assert_one_minimal ~mutant:Mutant.Converge_drop_phase2
    ~obj:Scenario.Commit_adopt ~procs:2 ~depth:6

let test_one_minimal_single_collect () =
  assert_one_minimal ~mutant:Mutant.Snapshot_single_collect
    ~obj:Scenario.Snapshot ~procs:3 ~depth:12

let test_one_minimal_skip_write_back () =
  assert_one_minimal ~mutant:Mutant.Abd_skip_write_back ~obj:Scenario.Abd
    ~procs:3 ~depth:6

(* ---------------------------------------------------------- budget --- *)

(* Executions of a DPOR sweep over the 2-process register scenario. *)
let explore_reg ?budget () =
  (Dpor.explore
     ~pattern:(Failure_pattern.no_failures ~n_plus_1:2)
     ~depth:6 ~horizon:400
     ?budget
     ~make:(Scenario.make Scenario.Register ~procs:2)
     ())
    .Dpor.stats.Dpor.executions

let test_budget_boundaries () =
  let free = explore_reg () in
  checkb "reference run explores something" true (free > 1);
  (* max_int means unbounded: identical outcome *)
  checki "budget = unbounded is a no-op" free
    (explore_reg ~budget:Dpor.unbounded ());
  (* budget = 1: exactly one execution, then truncation *)
  checki "budget = 1 runs once" 1 (explore_reg ~budget:1 ());
  (* budget = the exact execution count: no truncation, same outcome *)
  checki "exact budget does not truncate" free (explore_reg ~budget:free ());
  (* one less does truncate *)
  checki "budget - 1 truncates" (free - 1) (explore_reg ~budget:(free - 1) ())

let test_count_schedules_saturates () =
  (* 3^1000 overflows; count_schedules must return exactly unbounded,
     so that feeding it back as a budget imposes no limit *)
  let c = Explore.count_schedules ~n_plus_1:3 ~depth:1000 in
  checki "saturates to unbounded" Dpor.unbounded c;
  checki "saturated count as budget is unbounded" (explore_reg ())
    (explore_reg ~budget:c ());
  (* non-saturating cases still exact *)
  checki "3^4" 81 (Explore.count_schedules ~n_plus_1:3 ~depth:4);
  checki "depth 0" 1 (Explore.count_schedules ~n_plus_1:5 ~depth:0);
  (* sat_add saturates instead of wrapping *)
  checki "sat_add caps" Dpor.unbounded (Dpor.sat_add (Dpor.unbounded - 1) 2);
  checki "sat_add exact below cap" 7 (Dpor.sat_add 3 4)

(* --------------------------------------------------------- pruning --- *)

let test_dpor_prunes_10x_on_abd () =
  (* acceptance criterion: 3-process ABD at depth 10 in >= 10x fewer
     executions than unpruned enumeration, measured via Obs.Metrics *)
  let m = Obs.Metrics.counter "check.dpor.executions" in
  let before = Obs.Metrics.counter_value m in
  let outcome =
    Dpor.explore
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:3)
      ~depth:10 ~horizon:400
      ~make:(Scenario.make Scenario.Abd ~procs:3)
      ()
  in
  checkb "no violation" true (outcome.Dpor.counterexample = None);
  let explored = Obs.Metrics.counter_value m - before in
  checki "metrics agree with stats" outcome.Dpor.stats.Dpor.executions explored;
  let naive_bound = Explore.count_schedules ~n_plus_1:3 ~depth:10 in
  checkb
    (Printf.sprintf "10x pruning (%d * 10 <= %d)" explored naive_bound)
    true
    (explored * 10 <= naive_bound)

let suite =
  [
    Alcotest.test_case "lin: sequential register" `Quick test_lin_sequential;
    Alcotest.test_case "lin: overlapping ops" `Quick test_lin_overlap;
    Alcotest.test_case "lin: new/old inversion" `Quick test_lin_new_old_inversion;
    Alcotest.test_case "lin: pending semantics" `Quick test_lin_pending_may_apply;
    Alcotest.test_case "lin: pending after invocation" `Quick
      test_lin_pending_before_invocation;
    Alcotest.test_case "lin: event limit" `Quick test_lin_event_limit;
    Alcotest.test_case "histories: logged register ops" `Quick
      test_logged_register_history;
    Alcotest.test_case "histories: abd pending extraction" `Quick
      test_abd_history_pending;
    Alcotest.test_case "ddmin: minimal pair" `Quick test_ddmin_minimal_pair;
    Alcotest.test_case "ddmin: edge cases" `Quick test_ddmin_empty_and_singleton;
    Alcotest.test_case "minimize: synthetic replay" `Quick test_minimize_synthetic;
    Alcotest.test_case "minimize: rejects non-reproducing" `Quick
      test_minimize_rejects_nonreproducing;
    Alcotest.test_case "clean scenarios pass" `Quick test_clean_scenarios_pass;
    Alcotest.test_case "mutant: converge drop-phase2" `Quick
      test_mutant_drop_phase2;
    Alcotest.test_case "mutant: snapshot single-collect" `Slow
      test_mutant_single_collect;
    Alcotest.test_case "mutant: abd skip-write-back" `Quick
      test_mutant_skip_write_back;
    Alcotest.test_case "mutant names roundtrip" `Quick test_mutant_names_roundtrip;
    Alcotest.test_case "mutant check does not leak into e1" `Quick
      test_mutant_does_not_leak;
    Alcotest.test_case "mixed-mutant batch identical at any jobs" `Quick
      test_mixed_mutant_batch;
    Alcotest.test_case "shrink 1-minimal: converge drop-phase2" `Quick
      test_one_minimal_drop_phase2;
    Alcotest.test_case "shrink 1-minimal: snapshot single-collect" `Slow
      test_one_minimal_single_collect;
    Alcotest.test_case "shrink 1-minimal: abd skip-write-back" `Quick
      test_one_minimal_skip_write_back;
    Alcotest.test_case "budget boundaries" `Quick test_budget_boundaries;
    Alcotest.test_case "count_schedules saturates" `Quick
      test_count_schedules_saturates;
    Alcotest.test_case "dpor prunes >=10x on abd depth 10" `Slow
      test_dpor_prunes_10x_on_abd;
  ]
