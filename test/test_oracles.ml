(* Oracle validation: the checkers themselves must catch violations
   (negative tests), schedules must replay exactly, and the hand-derived
   phi maps must be empirically "non-samples": a detector over a pattern
   whose correct set equals phi(d).set can never stabilize on d. *)

open Kernel
open Detectors
open Agreement
open Reduction

let checkb = Alcotest.check Alcotest.bool

(* -- Sa_spec negative cases --------------------------------------------- *)

let base_pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 10) ]
let proposals = [ (0, 10); (1, 20); (2, 30) ]

let test_sa_spec_catches_agreement_violation () =
  let verdict =
    Sa_spec.check ~k:1 ~pattern:base_pattern ~proposals
      ~decisions:[ (1, 20); (2, 30) ]
      ()
  in
  checkb "agreement flagged" false verdict.Sa_spec.agreement;
  checkb "not all ok" false (Sa_spec.all_ok verdict)

let test_sa_spec_catches_validity_violation () =
  let verdict =
    Sa_spec.check ~k:2 ~pattern:base_pattern ~proposals
      ~decisions:[ (1, 999); (2, 999) ]
      ()
  in
  checkb "validity flagged" false verdict.Sa_spec.validity

let test_sa_spec_catches_termination_violation () =
  let verdict =
    Sa_spec.check ~k:2 ~pattern:base_pattern ~proposals
      ~decisions:[ (1, 20) ] (* p3 is correct but silent *)
      ()
  in
  checkb "termination flagged" false verdict.Sa_spec.termination;
  checkb "p3 reported missing" true
    (Pid.Set.mem 2 verdict.Sa_spec.undecided_correct)

let test_sa_spec_ignores_faulty_nondeciders () =
  (* p1 crashed; its silence must not violate Termination. *)
  let verdict =
    Sa_spec.check ~k:2 ~pattern:base_pattern ~proposals
      ~decisions:[ (1, 20); (2, 20) ]
      ()
  in
  checkb "all ok" true (Sa_spec.all_ok verdict)

(* -- run-condition oracles: negative cases -------------------------------- *)

let test_oracle_catches_posthumous_step () =
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (0, 5) ] in
  let forged =
    [
      Trace.Step
        { pid = 0; time = 7; kind = Sim.Nop; payload = Sim.No_payload };
    ]
  in
  let violations = Oracle.check_run_conditions pattern forged in
  checkb "condition 1 flagged" true
    (List.exists (fun v -> v.Oracle.condition = "run-condition-1") violations)

let test_oracle_catches_duplicate_times () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let forged =
    [
      Trace.Step
        { pid = 0; time = 3; kind = Sim.Nop; payload = Sim.No_payload };
      Trace.Step
        { pid = 1; time = 3; kind = Sim.Nop; payload = Sim.No_payload };
    ]
  in
  let violations = Oracle.check_run_conditions pattern forged in
  checkb "condition 3 flagged" true
    (List.exists (fun v -> v.Oracle.condition = "run-condition-3") violations)

let test_oracle_catches_forged_query_value () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let rng = Rng.create 5 in
  let src = Omega.make ~rng ~pattern ~leader:1 ~stab_time:0 () in
  let forged =
    [
      Trace.Step
        {
          pid = 0;
          time = 3;
          kind = Sim.Query { detector = src.Sim.name };
          payload = Sim.Note "p1" (* history says p2 *);
        };
    ]
  in
  checkb "condition 2 flagged" true (Oracle.check_query_values src forged <> [])

(* The same forgery as a typed value: p1 recorded where the history says
   p2, compared with [equal] through the shared witness. *)
let test_oracle_catches_forged_query_value_typed () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let rng = Rng.create 5 in
  let src = Omega.make ~rng ~pattern ~leader:1 ~stab_time:0 () in
  let step payload =
    Trace.Step
      {
        pid = 0;
        time = 3;
        kind = Sim.Query { detector = src.Sim.name };
        payload;
      }
  in
  checkb "condition 2 flagged" true
    (Oracle.check_query_values src [ step (Sim.Value (src, 0)) ] <> []);
  checkb "the true value passes" true
    (Oracle.check_query_values src [ step (Sim.Value (src, 1)) ] = []);
  (* a source of another witness falls back to comparing renderings *)
  let stranger =
    Sim.source ~name:src.Sim.name ~sample:src.sample ~render:src.render
      ~equal:src.equal ~id:(Type.Id.make ())
  in
  checkb "condition 2 flagged by rendering" true
    (Oracle.check_query_values src [ step (Sim.Value (stranger, 0)) ] <> []);
  checkb "same rendering passes" true
    (Oracle.check_query_values src [ step (Sim.Value (stranger, 1)) ] = [])

(* -- schedule replay -------------------------------------------------------- *)

let test_schedule_replay_reproduces_trace () =
  let make_world () =
    let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (2, 40) ] in
    let rng = Rng.create 21 in
    let upsilon = Upsilon.make ~rng ~pattern ~stab_time:25 () in
    let proto =
      Upsilon_sa.create ~name:"r" ~n_plus_1:3 ~upsilon ()
    in
    (pattern, proto)
  in
  (* original run under a random policy *)
  let pattern, proto1 = make_world () in
  let _, original_trace =
    Testutil.exec_traced ~pattern
      ~policy:(Policy.random (Rng.create 22))
      ~horizon:200_000
      ~procs:(fun pid -> [ Upsilon_sa.proposer proto1 ~me:pid ~input:(pid + 1) ])
      ()
  in
  (* replay: same world, schedule scripted from the original trace *)
  let pattern2, proto2 = make_world () in
  let _, replay_trace =
    Testutil.exec_traced ~pattern:pattern2
      ~policy:
        (Policy.script (Trace.schedule original_trace)
           ~then_:(fun ~now:_ ~enabled:_ -> None))
      ~horizon:200_000
      ~procs:(fun pid -> [ Upsilon_sa.proposer proto2 ~me:pid ~input:(pid + 1) ])
      ()
  in
  Alcotest.check Alcotest.string "identical traces"
    (Format.asprintf "%a" Trace.pp original_trace)
    (Format.asprintf "%a" Trace.pp replay_trace)

(* -- phi maps are empirically non-samples ------------------------------------ *)

(* For phi_D(d) = (S, w): build D over patterns whose correct set is
   exactly S and confirm no history stabilizes on d — the executable
   content of "sigma is not an f-resilient sample". *)

let pattern_with_correct ~n_plus_1 s =
  let crashes =
    Pid.all ~n_plus_1
    |> List.filter (fun p -> not (Pid.Set.mem p s))
    |> List.map (fun p -> (p, 20))
  in
  Failure_pattern.make ~n_plus_1 ~crashes

let test_phi_omega_is_non_sample () =
  let n_plus_1 = 4 and f = 2 in
  let phi = Phi.omega ~n_plus_1 ~f in
  List.iter
    (fun leader ->
      let { Phi.set = s; _ } = phi leader in
      let pattern = pattern_with_correct ~n_plus_1 s in
      (* every legal stable leader over this pattern is a correct process,
         i.e. a member of s, and d = leader is outside s *)
      for seed = 1 to 10 do
        let rng = Rng.create seed in
        let d = Omega.make ~rng ~pattern ~stab_time:0 () in
        checkb "cannot stabilize on d" false
          (Pid.equal (Detector.sample d (Pid.Set.choose s) 100) leader)
      done)
    (Pid.all ~n_plus_1)

let test_phi_upsilon_f_is_non_sample () =
  let n_plus_1 = 4 and f = 2 in
  let phi = Phi.upsilon_f ~n_plus_1 ~f in
  let u = Pid.Set.of_indices [ 0; 1; 2 ] in
  let { Phi.set = s; _ } = phi u in
  let pattern = pattern_with_correct ~n_plus_1 s in
  (* Upsilon_f over a pattern with correct = u must refuse to stabilize
     on u itself. *)
  checkb "phi is identity" true (Pid.Set.equal s u);
  Alcotest.check_raises "stable set u rejected"
    (Invalid_argument "Upsilon_f.make: stable set equals correct set")
    (fun () ->
      ignore
        (Upsilon_f.make ~rng:(Rng.create 1) ~pattern ~f ~stable_set:u ()))

let test_phi_suspicion_is_non_sample () =
  let n_plus_1 = 4 and f = 2 in
  let phi = Phi.suspicion ~n_plus_1 ~f in
  List.iter
    (fun suspected ->
      let { Phi.set = s; _ } = phi suspected in
      let pattern = pattern_with_correct ~n_plus_1 s in
      (* a P/<>P history over this pattern eventually outputs exactly
         Pi - s, which differs from d = suspected by construction *)
      let d = Perfect.make ~pattern in
      let eventual = Detector.sample d (Pid.Set.choose s) 1000 in
      checkb "eventual output is not d" false (Pid.Set.equal eventual suspected))
    (Pid.Set.subsets ~n_plus_1)

let suite =
  [
    Alcotest.test_case "sa_spec catches agreement violation" `Quick
      test_sa_spec_catches_agreement_violation;
    Alcotest.test_case "sa_spec catches validity violation" `Quick
      test_sa_spec_catches_validity_violation;
    Alcotest.test_case "sa_spec catches termination violation" `Quick
      test_sa_spec_catches_termination_violation;
    Alcotest.test_case "sa_spec ignores faulty non-deciders" `Quick
      test_sa_spec_ignores_faulty_nondeciders;
    Alcotest.test_case "oracle catches posthumous step" `Quick
      test_oracle_catches_posthumous_step;
    Alcotest.test_case "oracle catches duplicate times" `Quick
      test_oracle_catches_duplicate_times;
    Alcotest.test_case "oracle catches forged query value" `Quick
      test_oracle_catches_forged_query_value;
    Alcotest.test_case "oracle catches forged typed query value" `Quick
      test_oracle_catches_forged_query_value_typed;
    Alcotest.test_case "schedule replay reproduces trace" `Quick
      test_schedule_replay_reproduces_trace;
    Alcotest.test_case "phi(omega) non-sample" `Quick test_phi_omega_is_non_sample;
    Alcotest.test_case "phi(upsilon_f) non-sample" `Quick
      test_phi_upsilon_f_is_non_sample;
    Alcotest.test_case "phi(suspicion) non-sample" `Quick
      test_phi_suspicion_is_non_sample;
  ]
