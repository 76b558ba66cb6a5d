(* Heartbeat-implemented detectors: ◇P/◇S spec conformance across
   randomized GST/delay/loss families, agreement with oracle runs,
   determinism, and the planted heartbeat mutants being caught by DPOR
   exploration with shrunk, replayable counterexamples. *)

open Kernel

let checkb = Alcotest.check Alcotest.bool

let cfg ?(gst = 40) ?(delta = 2) ?(pre_delay = 8) ?(loss = 60) ?(seed = 7) () =
  { Link.gst; delta; pre_delay; loss_pct = loss; link_seed = seed }

let world ~seed ?(n_plus_1 = 3) ?(max_faulty = 1) ?(latest = 60) () =
  Wfde.Harness.random_world ~seed ~n_plus_1 ~max_faulty ~latest ()

(* -------------------------------------------------------- conformance *)

let test_hb_ev_perfect_conforms () =
  let v, stab =
    Wfde.Harness.run_hb_detector ~mode:`Ev_perfect ~net:(cfg ())
      (world ~seed:11 ())
  in
  (match v with Ok () -> () | Error e -> Alcotest.fail e);
  checkb "stabilized after a finite prefix" true (stab > 0)

let test_hb_ev_strong_conforms () =
  let v, _ =
    Wfde.Harness.run_hb_detector ~mode:`Ev_strong ~net:(cfg ())
      (world ~seed:12 ())
  in
  match v with Ok () -> () | Error e -> Alcotest.fail e

let test_hb_with_crashes () =
  (* every process but one may crash *)
  List.iter
    (fun seed ->
      let w = world ~seed ~n_plus_1:4 ~max_faulty:3 () in
      let v, _ = Wfde.Harness.run_hb_detector ~mode:`Ev_perfect ~net:(cfg ()) w in
      match v with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed e)
    [ 1; 2; 3; 4; 5 ]

let test_hb_deterministic () =
  let run () =
    Wfde.Harness.run_hb_detector ~mode:`Ev_perfect ~net:(cfg ()) (world ~seed:5 ())
  in
  let v1, s1 = run () and v2, s2 = run () in
  checkb "same verdict" true (v1 = v2);
  Alcotest.check Alcotest.int "same stabilization time" s1 s2

(* A run too short to witness stabilization fails both specs with the
   same message, before either looks at the history. *)
let test_hb_short_run_message () =
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (1, 30) ] in
  let expected =
    "no stabilization window: last suspicion change at 30, horizon 40 \
     leaves a tail of 10 < 20"
  in
  List.iter
    (fun (name, check) ->
      Alcotest.(check (result unit string))
        name (Error expected)
        (check ~pattern ~horizon:40))
    [
      ( "◇P",
        Detectors.Hb_ev_perfect.check
          (Detectors.Hb_ev_perfect.make ~n_plus_1:3 ~net:(cfg ()) ()) );
      ( "◇S",
        Detectors.Hb_ev_strong.check
          (Detectors.Hb_ev_strong.make ~n_plus_1:3 ~net:(cfg ()) ()) );
    ]

(* A detector built over a *fresh* link with the same surface as the
   oracle: the extraction harness accepts it unchanged, and its verdict
   agrees with the oracle ◇P's. *)
let test_extraction_agrees_with_oracle () =
  List.iter
    (fun seed ->
      let make_world () =
        Wfde.Harness.random_world ~seed:(900 + seed) ~n_plus_1:4 ~max_faulty:2
          ~latest:150 ()
      in
      let oracle, _ =
        Wfde.Harness.run_extraction_of ~f:2 ~source:(`Ev_perfect Oracle)
          (make_world ())
      in
      let implemented, _ =
        Wfde.Harness.run_extraction_of ~f:2
          ~source:(`Ev_perfect (Heartbeat (cfg ~gst:60 ~loss:40 ())))
          (make_world ())
      in
      checkb
        (Printf.sprintf "seed %d: oracle and implemented verdicts agree" seed)
        true
        (Result.is_ok oracle = Result.is_ok implemented
        && Result.is_ok oracle))
    [ 1; 2; 3 ]

(* Ω-from-heartbeats drives message-passing consensus to the same
   verdict as the oracle Ω, and the recorded leader queries replay
   exactly against the reconstructed history (0 query violations). *)
let test_consensus_with_implemented_omega () =
  List.iter
    (fun seed ->
      let w () =
        Wfde.Harness.random_world ~seed:(300 + seed) ~n_plus_1:3 ~max_faulty:1
          ~latest:100 ()
      in
      let oracle, mem_o =
        Wfde.Harness.run_msg_consensus ~horizon:400_000 ~detectors:Oracle
          (w ())
      in
      let impl, mem_i =
        Wfde.Harness.run_msg_consensus ~horizon:400_000
          ~detectors:(Heartbeat (cfg ~gst:50 ~loss:30 ()))
          (w ())
      in
      checkb
        (Printf.sprintf "seed %d: both decide and linearize" seed)
        true
        (Wfde.Harness.ok oracle && Wfde.Harness.ok impl && mem_o = Ok () && mem_i = Ok ());
      Alcotest.check Alcotest.int
        (Printf.sprintf "seed %d: no leader query violations" seed)
        0 impl.Wfde.Harness.query_violations;
      (* the monitors wind down once everyone correct has decided and the
         ABD servers are daemons, so the run quiesces *)
      checkb
        (Printf.sprintf "seed %d: implemented leg quiescent" seed)
        true
        (impl.Wfde.Harness.outcome = Scheduler.Quiescent))
    [ 1; 2 ]

(* Query replay can fail: the fibers query a constant leader history
   and the replay names another leader. Both replay paths count every
   disagreeing query — the oracle path as each query happens, the
   rebuilt path on the kept query events after the run — and the
   history the fibers queried replays clean. *)
let test_query_replay_catches_mismatch () =
  let leader l =
    Sim.source ~name:"omega" ~sample:(fun _ _ -> l) ~render:Pid.to_string
      ~equal:Pid.equal ~id:Sim.Witness.pid
  in
  let queried = leader 0 in
  let run replay =
    Wfde.Harness.run_agreement ~label:"replay" ~k:1 ~base:0 ~horizon:1_000
      ~replay:(Some replay)
      ~fibers:(fun ~me:_ ~input:_ ->
        [
          (fun () ->
            for _ = 1 to 3 do
              ignore (Sim.query queried : Pid.t)
            done);
        ])
      ~decisions:(fun () -> [])
      ~rounds:(fun () -> 0)
      (Wfde.Harness.random_world ~seed:1 ~n_plus_1:2 ~max_faulty:0 ())
  in
  let violations replay = (run replay).Wfde.Harness.query_violations in
  Alcotest.check Alcotest.int "oracle history, checked inline" 6
    (violations (Wfde.Harness.History (leader 1)));
  Alcotest.check Alcotest.int "rebuilt history, checked after the run" 6
    (violations (Wfde.Harness.Rebuilt (fun () -> leader 1)));
  Alcotest.check Alcotest.int "the queried history replays clean" 0
    (violations (Wfde.Harness.History queried))

(* ------------------------------------------------- DPOR + mutants *)

let hb_obj = Check.Scenario.Hb_detector Check.Scenario.default_chaos

let test_dpor_hb_clean () =
  let o = Wfde.Harness.check_exhaustive ~procs:2 ~depth:5 ~horizon:500 hb_obj in
  (match o.Wfde.Harness.violation with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected violation: %s" v.Wfde.Harness.cex_report);
  checkb "swept all patterns" true (o.Wfde.Harness.patterns_swept = 3);
  checkb "explored more than one schedule" true (o.Wfde.Harness.executions > 1)

let test_dpor_link_chaos_clean () =
  let o =
    Wfde.Harness.check_exhaustive ~procs:2 ~depth:5 ~horizon:500
      (Check.Scenario.Link_chaos Check.Scenario.default_chaos)
  in
  match o.Wfde.Harness.violation with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected violation: %s" v.Wfde.Harness.cex_report

let assert_mutant_caught mutant =
  let o =
    Wfde.Harness.check_exhaustive ~procs:2 ~depth:5 ~horizon:500 ~mutant hb_obj
  in
  match o.Wfde.Harness.violation with
  | None ->
      Alcotest.failf "mutant %s not caught" (Kernel.Mutant.to_string mutant)
  | Some v ->
      checkb "counterexample shrunk and replayable" true v.Wfde.Harness.shrunk;
      checkb "short prefix" true (List.length v.Wfde.Harness.cex_prefix <= 5)

let test_mutant_timeout_never_increased () =
  assert_mutant_caught Kernel.Mutant.Hb_timeout_never_increased

let test_mutant_suspected_not_restored () =
  assert_mutant_caught Kernel.Mutant.Hb_suspected_not_restored

(* -------------------------------------------------- pinned counters *)

(* The heartbeat detectors and the link layer under them, as exact work
   counters: each case's own counters followed by every nonzero one of
   [pinned_metrics] in a freshly reset registry, in that order, must
   equal the recorded list, and its minor-heap words may exceed the
   recorded figure by at most 10%. *)

let pinned_net = cfg ~gst:60 ~loss:40 ~seed:6 ()

let pinned_metrics =
  [
    ("executions", "check.dpor.executions");
    ("sleep_blocked", "check.dpor.sleep_blocked");
    ("deduped", "check.dpor.deduped");
    ("races", "check.dpor.races");
    ("backtrack_points", "check.dpor.backtrack_points");
    ("scheduler_steps", "kernel.scheduler.steps");
    ("shrink_replays", "check.shrink.replays");
    ("link_sent", "net.link.sent{link=hb_ev_perfect}");
    ("link_delivered", "net.link.delivered{link=hb_ev_perfect}");
    ("link_dropped", "net.link.dropped{link=hb_ev_perfect}");
    ("link_delayed", "net.link.delayed{link=hb_ev_perfect}");
    ("hb_heartbeats", "hb.heartbeats{family=hb_ev_perfect}");
    ("hb_suspicions", "hb.suspicions{family=hb_ev_perfect}");
    ("hb_restores", "hb.restores{family=hb_ev_perfect}");
    ("hb_timeout_raises", "hb.timeout_raises{family=hb_ev_perfect}");
  ]

let pinned_cases =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let monitors mode () =
    let runs =
      List.map
        (fun seed ->
          Wfde.Harness.run_hb_detector ~mode ~net:pinned_net (world ~seed ()))
        [ 1; 2; 3 ]
    in
    [
      ("spec_ok", sum (fun (v, _) -> if Result.is_ok v then 1 else 0) runs);
      ("stab_total", sum snd runs);
    ]
  in
  let check ?mutant obj () =
    let o =
      Wfde.Harness.check_exhaustive ?mutant ~procs:2 ~depth:5 ~horizon:500 obj
    in
    [ ("violations", if o.Wfde.Harness.violation = None then 0 else 1) ]
  in
  (* one leg on the same world with each detector choice, oracle first *)
  let both run =
    let oracle = run Wfde.Harness.Oracle in
    (oracle, run (Wfde.Harness.Heartbeat pinned_net))
  in
  let extraction () =
    let rs =
      List.map
        (fun seed ->
          let (oracle, _), (implemented, stab) =
            both (fun detectors ->
                Wfde.Harness.run_extraction_of ~f:2
                  ~source:(`Ev_perfect detectors)
                  (world ~seed:(4000 + seed) ~n_plus_1:4 ~max_faulty:2
                     ~latest:150 ()))
          in
          ( (if Result.is_ok oracle && Result.is_ok implemented then 1
             else 0),
            stab ))
        [ 1; 2 ]
    in
    [ ("both_ok", sum fst rs); ("hb_stab_total", sum snd rs) ]
  in
  let consensus () =
    let rs =
      List.map
        (fun seed ->
          let (oracle, mem_o), (impl, mem_i) =
            both (fun detectors ->
                Wfde.Harness.run_msg_consensus ~horizon:60_000 ~detectors
                  (world ~seed:(300 + seed) ~latest:100 ()))
          in
          let ok =
            Wfde.Harness.ok oracle && Wfde.Harness.ok impl && mem_o = Ok ()
            && mem_i = Ok ()
          in
          ( (if ok then 1 else 0),
            impl.Wfde.Harness.last_decision_time,
            impl.Wfde.Harness.query_violations ))
        [ 1; 2 ]
    in
    [
      ("both_ok", sum (fun (x, _, _) -> x) rs);
      ("hb_decide_total", sum (fun (_, t, _) -> t) rs);
      ("query_violations", sum (fun (_, _, q) -> q) rs);
    ]
  in
  let chaos = Check.Scenario.default_chaos in
  [
    ( "hb/evP monitors gst=60 loss=40 (3 worlds)",
      monitors `Ev_perfect,
      1_513_848,
      [
        ("spec_ok", 3); ("stab_total", 209); ("scheduler_steps", 18000);
        ("link_sent", 13494); ("link_delivered", 11948); ("link_dropped", 41);
        ("link_delayed", 6680); ("hb_heartbeats", 4502); ("hb_suspicions", 21);
        ("hb_restores", 19); ("hb_timeout_raises", 19);
      ] );
    ( "hb/evS monitors gst=60 loss=40 (3 worlds)",
      monitors `Ev_strong,
      1_929_331,
      [ ("spec_ok", 3); ("stab_total", 200); ("scheduler_steps", 18000) ] );
    ( "extraction/oracle-vs-hb f=2 (2 worlds)",
      extraction,
      18_332_959,
      [
        ("both_ok", 2); ("hb_stab_total", 618); ("scheduler_steps", 600000);
        ("link_sent", 79999); ("link_delivered", 59987); ("link_dropped", 13);
        ("link_delayed", 39957); ("hb_heartbeats", 20003); ("hb_suspicions", 23);
        ("hb_restores", 17); ("hb_timeout_raises", 17);
      ] );
    ( "consensus/oracle-vs-hb n=3 (2 worlds)",
      consensus,
      623_924,
      [
        ("both_ok", 2); ("hb_decide_total", 7488); ("query_violations", 0);
        ("scheduler_steps", 11769); ("link_sent", 1897); ("link_delivered", 1638);
        ("link_dropped", 12); ("link_delayed", 916); ("hb_heartbeats", 633);
        ("hb_suspicions", 13); ("hb_restores", 10); ("hb_timeout_raises", 10);
      ] );
    ( "check/hb-detector p2 d5",
      check hb_obj,
      1_478_331,
      [
        ("violations", 0); ("executions", 20); ("races", 3056);
        ("backtrack_points", 22); ("scheduler_steps", 10000); ("link_sent", 5761);
        ("link_delivered", 4335); ("link_dropped", 51); ("link_delayed", 2797);
        ("hb_heartbeats", 2899); ("hb_suspicions", 47); ("hb_restores", 33);
        ("hb_timeout_raises", 33);
      ] );
    ( "check/link-chaos p2 d5",
      check (Check.Scenario.Link_chaos chaos),
      1_294_495,
      [
        ("violations", 0); ("executions", 20); ("races", 3056);
        ("backtrack_points", 22); ("scheduler_steps", 10000);
      ] );
    ( "check/hb-mutant timeout-never-increased d5",
      check ~mutant:Kernel.Mutant.Hb_timeout_never_increased hb_obj,
      287_560,
      [
        ("violations", 1); ("executions", 1); ("scheduler_steps", 4000);
        ("shrink_replays", 7); ("link_sent", 2659); ("link_delivered", 2615);
        ("link_dropped", 26); ("link_delayed", 1272); ("hb_heartbeats", 1338);
        ("hb_suspicions", 137); ("hb_restores", 135);
      ] );
  ]

let test_pinned_counters () =
  List.iter
    (fun (name, run, minor_words, expected) ->
      let own, snap, words = Testutil.measured run in
      let counters =
        own
        @ List.filter_map
            (fun (label, metric) ->
              match Testutil.counter snap metric with
              | 0 -> None
              | v -> Some (label, v))
            pinned_metrics
      in
      Alcotest.(check (list (pair string int))) name expected counters;
      Testutil.check_minor_words name ~baseline:minor_words words)
    pinned_cases

(* ----------------------------------------------------------- qcheck *)

let qcheck_cases =
  let open QCheck in
  let gen_case =
    Gen.(
      int_bound 10_000 >>= fun seed ->
      int_bound 60 >>= fun gst ->
      int_range 1 4 >>= fun delta ->
      int_bound 12 >>= fun pre_delay ->
      int_bound 90 >>= fun loss ->
      bool >|= fun strong ->
      (seed, { Link.gst; delta; pre_delay; loss_pct = loss; link_seed = seed + 1 }, strong))
  in
  let print (seed, c, strong) =
    Printf.sprintf "seed=%d %s %s" seed
      (Link.config_to_string c)
      (if strong then "evS" else "evP")
  in
  [
    Test.make ~count:50
      ~name:"hb: ◇P/◇S conformance across randomized GST/delay/loss configs"
      (make ~print gen_case)
      (fun (seed, net, strong) ->
        let w = world ~seed ~n_plus_1:3 ~max_faulty:1 ~latest:40 () in
        let mode = if strong then `Ev_strong else `Ev_perfect in
        match Wfde.Harness.run_hb_detector ~mode ~net w with
        | Ok (), stab -> stab >= 0
        | Error e, _ -> Test.fail_reportf "%s: %s" (print (seed, net, strong)) e);
  ]

let suite =
  [
    Alcotest.test_case "hb ◇P conformance" `Quick test_hb_ev_perfect_conforms;
    Alcotest.test_case "hb ◇S conformance" `Quick test_hb_ev_strong_conforms;
    Alcotest.test_case "hb with crashes" `Quick test_hb_with_crashes;
    Alcotest.test_case "hb deterministic" `Quick test_hb_deterministic;
    Alcotest.test_case "hb short run: one window message" `Quick
      test_hb_short_run_message;
    Alcotest.test_case "extraction agrees with oracle" `Slow
      test_extraction_agrees_with_oracle;
    Alcotest.test_case "consensus with implemented omega" `Slow
      test_consensus_with_implemented_omega;
    Alcotest.test_case "query replay catches a mismatch" `Quick
      test_query_replay_catches_mismatch;
    Alcotest.test_case "DPOR hb clean" `Quick test_dpor_hb_clean;
    Alcotest.test_case "DPOR link-chaos clean" `Quick test_dpor_link_chaos_clean;
    Alcotest.test_case "mutant: timeout never increased" `Quick
      test_mutant_timeout_never_increased;
    Alcotest.test_case "mutant: suspected not restored" `Quick
      test_mutant_suspected_not_restored;
    Alcotest.test_case "detector and link counters pinned" `Slow
      test_pinned_counters;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
