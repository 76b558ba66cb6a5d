(* Tests for the set-agreement protocols: Fig 1 (Theorem 2), Fig 2
   (Theorem 6), the Omega_k baseline (at k = 1, Omega-consensus), and the
   detector-free impossibility skeleton. Safety is checked on every run;
   termination within generous horizons. *)

open Kernel
open Detectors
open Agreement

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let horizon = 2_000_000

(* Run Fig 1 under the given pattern/policy/detector; return the spec
   verdict and protocol object. *)
let run_fig1 ?(inputs = fun pid -> 100 + pid) ?participants ~pattern ~policy
    ~upsilon () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let proto =
    Upsilon_sa.create ~name:"sa" ~n_plus_1 ~upsilon:(Detector.source upsilon) ()
  in
  let participating pid =
    match participants with None -> true | Some s -> Pid.Set.mem pid s
  in
  let result =
    Run.exec ~pattern ~policy ~horizon
      ~procs:(fun pid ->
        if participating pid then
          [ Upsilon_sa.proposer proto ~me:pid ~input:(inputs pid) ]
        else [])
      ()
  in
  let proposals =
    List.filter_map
      (fun pid -> if participating pid then Some (pid, inputs pid) else None)
      (Pid.all ~n_plus_1)
  in
  let verdict =
    Sa_spec.check ~k:(n_plus_1 - 1) ~pattern ~proposals
      ~decisions:(Upsilon_sa.decisions proto)
      ?participants ()
  in
  (verdict, proto, result)

let expect_ok label verdict =
  if not (Sa_spec.all_ok verdict) then
    Alcotest.failf "%s: %a" label Sa_spec.pp verdict

(* -- Fig 1 ------------------------------------------------------------------ *)

let test_fig1_failure_free_round_robin () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  let rng = Rng.create 1 in
  let upsilon = Upsilon.make ~rng ~pattern ~stab_time:0 () in
  let verdict, _, _ =
    run_fig1 ~pattern ~policy:(Policy.round_robin ()) ~upsilon ()
  in
  expect_ok "fig1 failure-free" verdict

let test_fig1_random_schedules_and_crashes () =
  for seed = 1 to 60 do
    let rng = Rng.create seed in
    let n_plus_1 = 2 + (seed mod 4) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
        ~latest:300
    in
    let upsilon = Upsilon.make ~rng ~pattern () in
    let verdict, _, result =
      run_fig1 ~pattern ~policy:(Policy.random rng) ~upsilon ()
    in
    if not (Sa_spec.all_ok verdict) then
      Alcotest.failf "seed %d (pattern %a, outcome %s): %a" seed
        Failure_pattern.pp pattern
        (match result.outcome with
        | Scheduler.Horizon -> "horizon"
        | Scheduler.Quiescent -> "quiescent"
        | Scheduler.Policy_stop -> "policy-stop")
        Sa_spec.pp verdict
  done

let test_fig1_late_stabilization () =
  (* Υ spews garbage for a long prefix; the protocol must still decide. *)
  let pattern = Failure_pattern.make ~n_plus_1:4 ~crashes:[ (0, 50) ] in
  let rng = Rng.create 77 in
  let upsilon = Upsilon.make ~rng ~pattern ~stab_time:5_000 () in
  let verdict, _, _ =
    run_fig1 ~pattern ~policy:(Policy.random (Rng.create 78)) ~upsilon ()
  in
  expect_ok "fig1 late stabilization" verdict

let test_fig1_all_legal_stable_sets () =
  (* Theorem 2 holds whatever legal set Υ stabilizes to: sweep them all
     for a fixed pattern. *)
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 40) ] in
  List.iter
    (fun stable_set ->
      let rng = Rng.create 5 in
      let upsilon = Upsilon.make ~rng ~pattern ~stable_set ~stab_time:100 () in
      let verdict, _, _ =
        run_fig1 ~pattern ~policy:(Policy.random (Rng.create 6)) ~upsilon ()
      in
      if not (Sa_spec.all_ok verdict) then
        Alcotest.failf "stable set %s: %a"
          (Pid.Set.to_string stable_set)
          Sa_spec.pp verdict)
    (Upsilon.legal_stable_sets ~pattern)

let test_fig1_identical_inputs_decide_it () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:4 in
  let rng = Rng.create 10 in
  let upsilon = Upsilon.make ~rng ~pattern ~stab_time:0 () in
  let verdict, proto, _ =
    run_fig1
      ~inputs:(fun _ -> 55)
      ~pattern
      ~policy:(Policy.random (Rng.create 11))
      ~upsilon ()
  in
  expect_ok "fig1 identical inputs" verdict;
  List.iter
    (fun (_, v) -> checki "decided the only input" 55 v)
    (Upsilon_sa.decisions proto)

let test_fig1_nonparticipation_remark () =
  (* Remark after Theorem 2: with a non-participant, round 1's n-converge
     sees at most n values and every correct participant decides in
     round 1. *)
  let n_plus_1 = 4 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let rng = Rng.create 21 in
  let upsilon = Upsilon.make ~rng ~pattern ~stab_time:10 () in
  let participants = Pid.Set.of_indices [ 0; 1; 2 ] in
  let verdict, proto, _ =
    run_fig1 ~participants ~pattern
      ~policy:(Policy.random (Rng.create 22))
      ~upsilon ()
  in
  expect_ok "fig1 non-participation" verdict;
  List.iter
    (fun (_, r) -> checki "decided in round 1" 1 r)
    (Upsilon_sa.decision_rounds proto)

let test_fig1_lockstep_with_distinct_inputs () =
  (* The schedule that starves the detector-free skeleton forever is
     broken by Υ once it stabilizes. *)
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  let rng = Rng.create 31 in
  let upsilon = Upsilon.make ~rng ~pattern ~stab_time:0 () in
  let verdict, _, _ =
    run_fig1 ~pattern ~policy:(Policy.round_robin ()) ~upsilon ()
  in
  expect_ok "fig1 lockstep" verdict

let test_fig1_two_processes_is_consensus () =
  (* n = 1: 1-set agreement = consensus, solved with Υ (≡ Ω here). *)
  for seed = 1 to 20 do
    let rng = Rng.create (seed * 3) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1:2 ~max_faulty:1 ~latest:100
    in
    let upsilon = Upsilon.make ~rng ~pattern () in
    let verdict, proto, _ =
      run_fig1 ~pattern ~policy:(Policy.random rng) ~upsilon ()
    in
    expect_ok "fig1 consensus" verdict;
    let decided = List.sort_uniq Int.compare (List.map snd (Upsilon_sa.decisions proto)) in
    checkb "single value" true (List.length decided <= 1)
  done

(* -- Fig 2 ------------------------------------------------------------------ *)

let run_fig2 ?(inputs = fun pid -> 200 + pid) ~pattern ~policy ~f ~upsilon_f ()
    =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let proto =
    Upsilon_f_sa.create ~name:"fsa" ~n_plus_1 ~f
      ~upsilon_f:(Detector.source upsilon_f) ()
  in
  let result =
    Run.exec ~pattern ~policy ~horizon
      ~procs:(fun pid ->
        [ Upsilon_f_sa.proposer proto ~me:pid ~input:(inputs pid) ])
      ()
  in
  let proposals = List.map (fun pid -> (pid, inputs pid)) (Pid.all ~n_plus_1) in
  let verdict =
    Sa_spec.check ~k:f ~pattern ~proposals
      ~decisions:(Upsilon_f_sa.decisions proto)
      ()
  in
  (verdict, proto, result)

let test_fig2_failure_free () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:4 in
  let rng = Rng.create 41 in
  let f = 2 in
  let upsilon_f = Upsilon_f.make ~rng ~pattern ~f ~stab_time:0 () in
  let verdict, _, _ =
    run_fig2 ~pattern ~policy:(Policy.round_robin ()) ~f ~upsilon_f ()
  in
  expect_ok "fig2 failure-free" verdict

let test_fig2_sweep_f_and_crashes () =
  for seed = 1 to 50 do
    let rng = Rng.create (seed * 7) in
    let n_plus_1 = 3 + (seed mod 3) in
    let f = 1 + (seed mod (n_plus_1 - 1)) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:300
    in
    let upsilon_f = Upsilon_f.make ~rng ~pattern ~f () in
    let verdict, _, _ =
      run_fig2 ~pattern ~policy:(Policy.random rng) ~f ~upsilon_f ()
    in
    if not (Sa_spec.all_ok verdict) then
      Alcotest.failf "seed %d (n+1=%d, f=%d, %a): %a" seed n_plus_1 f
        Failure_pattern.pp pattern Sa_spec.pp verdict
  done

let test_fig2_gladiator_only_case () =
  (* Υᶠ stabilizes to a strict superset of the correct set: all correct
     processes are gladiators and must converge through the snapshot
     mechanism alone (case D[r]=⊥ forever of the Theorem 6 proof). *)
  let n_plus_1 = 4 in
  let f = 2 in
  let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (3, 60) ] in
  (* correct = {p1,p2,p3}; choose U = Π (≠ correct, |U| ≥ n+1−f) *)
  let rng = Rng.create 51 in
  let upsilon_f =
    Upsilon_f.make ~rng ~pattern ~f
      ~stable_set:(Pid.Set.full ~n_plus_1)
      ~stab_time:0 ()
  in
  let verdict, _, _ =
    run_fig2 ~pattern ~policy:(Policy.random (Rng.create 52)) ~f ~upsilon_f ()
  in
  expect_ok "fig2 gladiators only" verdict

let test_fig2_citizen_only_escape () =
  (* Υᶠ stabilizes to a set disjoint from some correct citizen: the
     citizen's D[r] write must unblock gladiators. *)
  let n_plus_1 = 4 in
  let f = 2 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let rng = Rng.create 61 in
  let upsilon_f =
    Upsilon_f.make ~rng ~pattern ~f
      ~stable_set:(Pid.Set.of_indices [ 0; 1 ])
      ~stab_time:0 ()
  in
  let verdict, _, _ =
    run_fig2 ~pattern ~policy:(Policy.random (Rng.create 62)) ~f ~upsilon_f ()
  in
  expect_ok "fig2 citizen escape" verdict

let test_fig2_f_equals_n_matches_fig1 () =
  (* Υⁿ = Υ: at f = n, Fig 2 solves the same problem as Fig 1. *)
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (1, 30) ] in
  let rng = Rng.create 71 in
  let f = 2 in
  let upsilon_f = Upsilon_f.make ~rng ~pattern ~f () in
  let verdict, _, _ =
    run_fig2 ~pattern ~policy:(Policy.random (Rng.create 72)) ~f ~upsilon_f ()
  in
  expect_ok "fig2 at f=n" verdict

(* -- Ωₖ baseline -------------------------------------------------------------- *)

let run_omega_k ?(inputs = fun pid -> 300 + pid) ~pattern ~policy ~k ~omega_k
    () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let proto =
    Omega_k_sa.create ~name:"oksa" ~n_plus_1 ~k
      ~omega_k:(Detector.source omega_k)
  in
  let result =
    Run.exec ~pattern ~policy ~horizon
      ~procs:(fun pid ->
        [ Omega_k_sa.proposer proto ~me:pid ~input:(inputs pid) ])
      ()
  in
  let proposals = List.map (fun pid -> (pid, inputs pid)) (Pid.all ~n_plus_1) in
  let verdict =
    Sa_spec.check ~k ~pattern ~proposals
      ~decisions:(Omega_k_sa.decisions proto)
      ()
  in
  (verdict, proto, result)

let test_omega_k_baseline () =
  for seed = 1 to 40 do
    let rng = Rng.create (seed * 11) in
    let n_plus_1 = 3 + (seed mod 3) in
    let k = 1 + (seed mod (n_plus_1 - 1)) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
        ~latest:200
    in
    let omega_k = Omega_k.make ~rng ~pattern ~k () in
    let verdict, _, _ =
      run_omega_k ~pattern ~policy:(Policy.random rng) ~k ~omega_k ()
    in
    if not (Sa_spec.all_ok verdict) then
      Alcotest.failf "seed %d: %a" seed Sa_spec.pp verdict
  done

(* -- Impossibility skeleton ----------------------------------------------------- *)

let test_async_attempt_starves_under_lockstep () =
  (* Distinct inputs + lock-step round-robin: nobody ever decides (the
     impossibility's bad run), yet safety holds vacuously. *)
  let n_plus_1 = 3 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let proto = Async_attempt.create ~name:"async" ~n_plus_1 in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~horizon:100_000
      ~procs:(fun pid ->
        [ Async_attempt.proposer proto ~me:pid ~input:(500 + pid) ])
      ()
  in
  checkb "ran to horizon" true (result.outcome = Scheduler.Horizon);
  checki "nobody decided" 0 (List.length (Async_attempt.decisions proto));
  checkb "many rounds burned" true (Async_attempt.rounds_entered proto > 10)

let test_async_attempt_safety_always () =
  (* Under random schedules the skeleton may decide — but never more than
     n values, and only proposed ones. *)
  for seed = 1 to 40 do
    let rng = Rng.create (seed * 17) in
    let n_plus_1 = 3 in
    let pattern = Failure_pattern.no_failures ~n_plus_1 in
    let proto = Async_attempt.create ~name:"async" ~n_plus_1 in
    let _ =
      Run.exec ~pattern ~policy:(Policy.random rng) ~horizon:200_000
        ~procs:(fun pid ->
          [ Async_attempt.proposer proto ~me:pid ~input:(600 + pid) ])
        ()
    in
    let decided =
      List.sort_uniq Int.compare (List.map snd (Async_attempt.decisions proto))
    in
    checkb "agreement" true (List.length decided <= n_plus_1 - 1);
    checkb "validity" true
      (List.for_all (fun v -> v >= 600 && v < 600 + n_plus_1) decided)
  done

let test_async_attempt_identical_inputs_decides () =
  (* With a single input value, even the detector-free skeleton commits
     in round 1 — the impossibility needs input diversity. *)
  let n_plus_1 = 3 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let proto = Async_attempt.create ~name:"async" ~n_plus_1 in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~horizon:100_000
      ~procs:(fun pid -> [ Async_attempt.proposer proto ~me:pid ~input:7 ])
      ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  checki "all decided" n_plus_1 (List.length (Async_attempt.decisions proto))

(* -- property tests -------------------------------------------------------------- *)

(* -- Round window ---------------------------------------------------------- *)

(* [f ()] must fail loudly on a retired object, never rebuild it. *)
let retired what f =
  match f () with
  | _ -> Alcotest.failf "%s: a retired object was reachable" what
  | exception Invalid_argument _ -> ()

(* One object per (position, k): k is part of the identity, as in
   (|U|-1)-converge[r][k], so processes whose Upsilon outputs differ
   reach different objects at the same position. *)
let test_rounds_share_objects () =
  let w = Rounds.create ~name:"w" ~n_plus_1:2 in
  let a = Rounds.converge w ~round:1 ~sub:1 ~k:1 in
  checkb "same position and k shares" true
    (a == Rounds.converge w ~round:1 ~sub:1 ~k:1);
  checkb "another sub-round is distinct" true
    (not (a == Rounds.converge w ~round:1 ~sub:2 ~k:1));
  checkb "another round is distinct" true
    (not (a == Rounds.converge w ~round:2 ~sub:1 ~k:1));
  let d = Rounds.converge w ~round:1 ~sub:1 ~k:2 in
  checkb "another k is distinct" true (not (a == d));
  checki "k recorded" 2 (Converge.k_of d);
  checkb "D[r] shared" true (Rounds.d w 3 == Rounds.d w 3);
  Alcotest.(check string)
    "D[r] name" "w.D[3]"
    (Memory.Register.name (Rounds.d w 3))

(* 0-converge: the one no-object instance at every position, and running
   it takes no step. *)
let test_rounds_zero_is_shared () =
  let w = Rounds.create ~name:"w" ~n_plus_1:3 in
  let zero = Rounds.converge w ~round:1 ~sub:1 ~k:0 in
  checkb "Converge.zero" true (zero == Converge.zero);
  List.iter
    (fun (round, sub) ->
      checkb (Printf.sprintf "(%d, %d)" round sub) true
        (Rounds.converge w ~round ~sub ~k:0 == zero))
    [ (1, 0); (1, 2); (7, 1) ];
  checki "k" 0 (Converge.k_of zero);
  let outs = ref [] in
  let result =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:3)
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid ->
        [ (fun () -> outs := Converge.run zero ~me:pid (10 + pid) :: !outs) ])
      ()
  in
  checki "no steps" 0 result.steps;
  checkb "each returns (v, false)" true
    (List.sort compare !outs = [ (10, false); (11, false); (12, false) ])

(* A sub-round object retires once every process is past its position,
   a round-level one once every process is past its round. *)
let test_rounds_retire_passed () =
  let w = Rounds.create ~name:"w" ~n_plus_1:2 in
  ignore (Rounds.converge w ~round:1 ~sub:1 ~k:1);
  let d1 = Rounds.d w 1 in
  List.iter (fun me -> Rounds.enter w ~me ~round:1 ~sub:2) [ 0; 1 ];
  retired "(1, 1)" (fun () -> Rounds.converge w ~round:1 ~sub:1 ~k:1);
  retired "0-converge at (1, 1)" (fun () ->
      Rounds.converge w ~round:1 ~sub:1 ~k:0);
  checkb "D[1] lives through round 1" true (Rounds.d w 1 == d1);
  List.iter (fun me -> Rounds.enter w ~me ~round:2 ~sub:0) [ 0; 1 ];
  retired "D[1]" (fun () -> Rounds.d w 1);
  retired "Stable[1]" (fun () -> Rounds.stable w 1);
  retired "going back" (fun () -> Rounds.enter w ~me:0 ~round:1 ~sub:5)

(* A process that never moves (crashed, or not yet started) pins its
   position: nothing at or after it retires. *)
let test_rounds_pinned () =
  let w = Rounds.create ~name:"w" ~n_plus_1:3 in
  let a = Rounds.converge w ~round:1 ~sub:1 ~k:1 in
  let d1 = Rounds.d w 1 in
  List.iter (fun me -> Rounds.enter w ~me ~round:5 ~sub:0) [ 0; 1 ];
  checkb "(1, 1) kept" true (Rounds.converge w ~round:1 ~sub:1 ~k:1 == a);
  checkb "D[1] kept" true (Rounds.d w 1 == d1);
  checki "rounds entered" 5 (Rounds.rounds_entered w)

(* Deciding releases a process: it no longer holds the floor. *)
let test_rounds_decide_releases () =
  let w = Rounds.create ~name:"w" ~n_plus_1:2 in
  let _ =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:2)
      ~policy:(Policy.round_robin ())
      ~procs:(function
        | 0 -> [ (fun () -> Rounds.decide w ~me:0 ~round:1 7) ]
        | me -> [ (fun () -> Rounds.enter w ~me ~round:2 ~sub:0) ])
      ()
  in
  checkb "decision logged" true (Rounds.decisions w = [ (0, 7) ]);
  checkb "decision round logged" true (Rounds.decision_rounds w = [ (0, 1) ]);
  retired "D[1]" (fun () -> Rounds.d w 1);
  ignore (Rounds.d w 2)

(* What a starving run keeps does not grow with its horizon: the words
   reachable from the protocol after 400k steps are those after 100k,
   give or take a few. Keeping every round's objects, this Fig-1 run
   held 311,220 words at 100k steps and 1,244,292 at 400k, the async
   skeleton 217,218 and 868,514. *)
let test_heap_independent_of_horizon () =
  let n_plus_1 = 3 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let starve label run =
    let words horizon =
      let proto, result = run horizon in
      checkb (label ^ " starves") true (result.Run.outcome = Scheduler.Horizon);
      Obj.reachable_words (Obj.repr proto)
    in
    let w100 = words 100_000 and w400 = words 400_000 in
    checkb (Printf.sprintf "%s: %d words at 100k <= 4,000" label w100) true
      (w100 <= 4_000);
    checkb
      (Printf.sprintf "%s: %d words at 400k <= %d at 100k + 64" label w400 w100)
      true
      (w400 <= w100 + 64)
  in
  let exec proposer horizon =
    Run.exec ~pattern ~policy:(Policy.round_robin ()) ~horizon
      ~procs:(fun pid -> [ proposer ~me:pid ~input:(100 + pid) ])
      ()
  in
  starve "fig1, no D[r] and no D" (fun horizon ->
      let upsilon = Upsilon.make ~rng:(Rng.create 1) ~pattern ~stab_time:0 () in
      let escapes =
        {
          Upsilon_sa.all_escapes with
          watch_round_d = false;
          watch_final = false;
        }
      in
      let proto =
        Upsilon_sa.create ~escapes ~name:"sa" ~n_plus_1
          ~upsilon:(Detector.source upsilon) ()
      in
      (proto, exec (Upsilon_sa.proposer proto) horizon));
  starve "async skeleton" (fun horizon ->
      let proto = Async_attempt.create ~name:"async" ~n_plus_1 in
      (proto, exec (Async_attempt.proposer proto) horizon))

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:60 ~name:"fig1: safety+termination over random worlds"
      small_nat
      (fun seed ->
        let rng = Rng.create ((seed * 41) + 3) in
        let n_plus_1 = 2 + (seed mod 4) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
            ~latest:250
        in
        let upsilon = Upsilon.make ~rng ~pattern () in
        let verdict, _, _ =
          run_fig1 ~pattern ~policy:(Policy.random rng) ~upsilon ()
        in
        Sa_spec.all_ok verdict);
    Test.make ~count:50 ~name:"fig2: safety+termination over random worlds"
      small_nat
      (fun seed ->
        let rng = Rng.create ((seed * 43) + 5) in
        let n_plus_1 = 3 + (seed mod 3) in
        let f = 1 + (seed mod (n_plus_1 - 1)) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:250
        in
        let upsilon_f = Upsilon_f.make ~rng ~pattern ~f () in
        let verdict, _, _ =
          run_fig2 ~pattern ~policy:(Policy.random rng) ~f ~upsilon_f ()
        in
        Sa_spec.all_ok verdict);
    Test.make ~count:40
      ~name:"fig1 under weighted (asymmetric-speed) schedulers" small_nat
      (fun seed ->
        let rng = Rng.create ((seed * 47) + 7) in
        let n_plus_1 = 3 in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:2 ~latest:150
        in
        let upsilon = Upsilon.make ~rng ~pattern () in
        let weights = [ (0, 10); (1, 1); (2, 3) ] in
        let verdict, _, _ =
          run_fig1 ~pattern ~policy:(Policy.weighted rng ~weights) ~upsilon ()
        in
        Sa_spec.all_ok verdict);
  ]

let suite =
  [
    Alcotest.test_case "fig1 failure-free round-robin" `Quick
      test_fig1_failure_free_round_robin;
    Alcotest.test_case "fig1 random schedules+crashes" `Quick
      test_fig1_random_schedules_and_crashes;
    Alcotest.test_case "fig1 late stabilization" `Quick
      test_fig1_late_stabilization;
    Alcotest.test_case "fig1 all legal stable sets" `Quick
      test_fig1_all_legal_stable_sets;
    Alcotest.test_case "fig1 identical inputs" `Quick
      test_fig1_identical_inputs_decide_it;
    Alcotest.test_case "fig1 non-participation remark" `Quick
      test_fig1_nonparticipation_remark;
    Alcotest.test_case "fig1 lockstep distinct inputs" `Quick
      test_fig1_lockstep_with_distinct_inputs;
    Alcotest.test_case "fig1 two-process consensus" `Quick
      test_fig1_two_processes_is_consensus;
    Alcotest.test_case "fig2 failure-free" `Quick test_fig2_failure_free;
    Alcotest.test_case "fig2 sweep f and crashes" `Quick
      test_fig2_sweep_f_and_crashes;
    Alcotest.test_case "fig2 gladiators only" `Quick
      test_fig2_gladiator_only_case;
    Alcotest.test_case "fig2 citizen escape" `Quick
      test_fig2_citizen_only_escape;
    Alcotest.test_case "fig2 f=n" `Quick test_fig2_f_equals_n_matches_fig1;
    Alcotest.test_case "omega_k baseline" `Quick test_omega_k_baseline;
    Alcotest.test_case "async skeleton starves (lockstep)" `Quick
      test_async_attempt_starves_under_lockstep;
    Alcotest.test_case "async skeleton safety" `Quick
      test_async_attempt_safety_always;
    Alcotest.test_case "async skeleton, one input" `Quick
      test_async_attempt_identical_inputs_decides;
    Alcotest.test_case "round window shares objects" `Quick
      test_rounds_share_objects;
    Alcotest.test_case "round window 0-converge stepless" `Quick
      test_rounds_zero_is_shared;
    Alcotest.test_case "round window retires passed objects" `Quick
      test_rounds_retire_passed;
    Alcotest.test_case "round window pinned by a process that stays" `Quick
      test_rounds_pinned;
    Alcotest.test_case "round window released by deciding" `Quick
      test_rounds_decide_releases;
    Alcotest.test_case "heap independent of the horizon" `Quick
      test_heap_independent_of_horizon;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
