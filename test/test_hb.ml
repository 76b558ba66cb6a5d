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
        Wfde.Harness.run_extraction_of ~f:2 ~source:`Ev_perfect (make_world ())
      in
      let implemented, _ =
        Wfde.Harness.run_extraction_of ~f:2
          ~source:(`Hb_ev_perfect (cfg ~gst:60 ~loss:40 ()))
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
        Wfde.Harness.run_msg_consensus ~horizon:400_000 ~omega_impl:None (w ())
      in
      let impl, mem_i =
        Wfde.Harness.run_msg_consensus ~horizon:400_000
          ~omega_impl:(Some (cfg ~gst:50 ~loss:30 ()))
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
    {
      Sim.name = "omega";
      sample = (fun _ _ -> l);
      render = Pid.to_string;
      equal = Pid.equal;
      id = Sim.Witness.pid;
    }
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
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
