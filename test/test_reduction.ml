(* Tests for the reduction layer: the Fig-3 extraction of Υᶠ from stable
   detectors (Theorem 10), the pairwise reductions of §4/§5.3, the ϕ_D
   maps, and the Theorem 1/5 adversary. *)

open Kernel
open Detectors
open Reduction

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let expect_ok label = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

(* Run a Fig-3 extraction to a horizon and check the Υᶠ spec on the
   extracted variable. *)
let run_extraction ?(horizon = 120_000) ?(tail = 20_000) ~pattern ~policy ~f
    ~detector ~equal ~phi () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let ex =
    Extract_upsilon.create ~name:"ex" ~n_plus_1 ~f ~detector ~equal ~phi
  in
  let result =
    Run.exec ~pattern ~policy ~horizon
      ~procs:(fun pid -> Extract_upsilon.fibers ex ~me:pid)
      ()
  in
  let last_time = result.Run.last_time in
  (ex, Extract_upsilon.check ex ~pattern ~last_time ~tail, result)

(* -- ϕ maps ------------------------------------------------------------------ *)

let test_phi_omega_avoids_leader () =
  let phi = Phi.omega ~n_plus_1:4 ~f:2 in
  List.iter
    (fun leader ->
      let { Phi.set; batches } = phi leader in
      checki "size n+1-f" 2 (Pid.Set.cardinal set);
      checkb "avoids leader" false (Pid.Set.mem leader set);
      checki "no batches" 0 batches)
    (Pid.all ~n_plus_1:4)

let test_phi_omega_k_disjoint () =
  let phi = Phi.omega_k ~n_plus_1:5 ~f:3 ~k:2 in
  let committee = Pid.Set.of_indices [ 1; 3 ] in
  let { Phi.set; _ } = phi committee in
  checki "size n+1-f" 2 (Pid.Set.cardinal set);
  checkb "disjoint from committee" true
    (Pid.Set.is_empty (Pid.Set.inter set committee))

let test_phi_omega_k_requires_k_le_f () =
  Alcotest.check_raises "k > f rejected"
    (Invalid_argument "Phi.omega_k: needs k <= f") (fun () ->
      let (_ : Pid.Set.t Phi.map) = Phi.omega_k ~n_plus_1:4 ~f:1 ~k:2 in
      ())

let test_phi_suspicion_avoids_complement () =
  let n_plus_1 = 4 and f = 2 in
  let phi = Phi.suspicion ~n_plus_1 ~f in
  List.iter
    (fun suspected ->
      let { Phi.set; _ } = phi suspected in
      checki "size n+1-f" (n_plus_1 - f) (Pid.Set.cardinal set);
      checkb "differs from the complement" false
        (Pid.Set.equal set (Pid.Set.complement ~n_plus_1 suspected)))
    (Pid.Set.subsets ~n_plus_1)

let test_phi_upsilon_is_identity () =
  let phi = Phi.upsilon_f ~n_plus_1:4 ~f:2 in
  let u = Pid.Set.of_indices [ 0; 2; 3 ] in
  checkb "identity on the value" true (Pid.Set.equal (phi u).Phi.set u)

let test_phi_vitality_branches () =
  let phi = Phi.vitality ~n_plus_1:3 ~f:2 ~watched:0 in
  checkb "true branch avoids watched" false (Pid.Set.mem 0 (phi true).Phi.set);
  checkb "false branch contains watched" true (Pid.Set.mem 0 (phi false).Phi.set)

let test_phi_with_batches () =
  let phi = Phi.with_batches 3 (Phi.omega ~n_plus_1:3 ~f:2) in
  checki "batches raised" 3 (phi 0).Phi.batches

(* -- Fig 3 extraction --------------------------------------------------------- *)

let test_extract_from_omega () =
  for seed = 1 to 15 do
    let rng = Rng.create (seed * 5) in
    let n_plus_1 = 3 + (seed mod 2) in
    let f = 2 in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:200
    in
    let omega = Omega.make ~rng ~pattern ~stab_time:100 () in
    let _, verdict, _ =
      run_extraction ~pattern ~policy:(Policy.random rng) ~f
        ~detector:omega ~equal:Pid.equal
        ~phi:(Phi.omega ~n_plus_1 ~f) ()
    in
    expect_ok (Printf.sprintf "extract omega seed %d" seed) verdict
  done

let test_extract_from_omega_k () =
  let n_plus_1 = 4 and f = 2 and k = 2 in
  for seed = 1 to 10 do
    let rng = Rng.create (seed * 9) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:150
    in
    let d = Omega_k.make ~rng ~pattern ~k ~stab_time:80 () in
    let _, verdict, _ =
      run_extraction ~pattern ~policy:(Policy.random rng) ~f
        ~detector:d ~equal:Pid.Set.equal
        ~phi:(Phi.omega_k ~n_plus_1 ~f ~k) ()
    in
    expect_ok (Printf.sprintf "extract omega_k seed %d" seed) verdict
  done

let test_extract_from_ev_perfect () =
  for seed = 1 to 10 do
    let rng = Rng.create (seed * 11) in
    let n_plus_1 = 3 in
    let f = 2 in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:150
    in
    let d = Ev_perfect.make ~rng ~pattern ~stab_time:80 () in
    let _, verdict, _ =
      run_extraction ~pattern ~policy:(Policy.random rng) ~f
        ~detector:d ~equal:Pid.Set.equal
        ~phi:(Phi.suspicion ~n_plus_1 ~f) ()
    in
    expect_ok (Printf.sprintf "extract ev_perfect seed %d" seed) verdict
  done

let test_extract_from_upsilon_f_is_identity () =
  (* Feeding Υᶠ to Fig 3 must re-extract a legal Υᶠ output — and since
     ϕ is the identity, exactly the stable set of the source. *)
  let n_plus_1 = 4 and f = 2 in
  let rng = Rng.create 33 in
  let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (1, 50) ] in
  let stable_set = Pid.Set.of_indices [ 0; 1; 2 ] in
  let d = Upsilon_f.make ~rng ~pattern ~f ~stable_set ~stab_time:60 () in
  let ex, verdict, _ =
    run_extraction ~pattern
      ~policy:(Policy.random (Rng.create 34))
      ~f
      ~detector:d ~equal:Pid.Set.equal
      ~phi:(Phi.upsilon_f ~n_plus_1 ~f) ()
  in
  expect_ok "extract upsilon_f" verdict;
  Pid.Set.iter
    (fun p ->
      match Extract_upsilon.current_output ex p with
      | Some s -> checkb "re-extracted the stable set" true (Pid.Set.equal s stable_set)
      | None -> Alcotest.fail "no output")
    (Failure_pattern.correct pattern)

let test_extract_from_vitality () =
  let n_plus_1 = 3 and f = 2 in
  List.iter
    (fun crashes ->
      let rng = Rng.create 44 in
      let pattern = Failure_pattern.make ~n_plus_1 ~crashes in
      let d = Vitality.make ~rng ~pattern ~watched:0 ~stab_time:70 () in
      let _, verdict, _ =
        run_extraction ~pattern
          ~policy:(Policy.random (Rng.create 45))
          ~f
          ~detector:d ~equal:Bool.equal
          ~phi:(Phi.vitality ~n_plus_1 ~f ~watched:0) ()
      in
      expect_ok "extract vitality" verdict)
    [ []; [ (0, 60) ]; [ (1, 60) ] ]

let test_extract_with_batches () =
  (* Non-zero w(σ): the extraction must observe whole query batches
     before committing — and still be correct. *)
  let n_plus_1 = 3 and f = 2 in
  let rng = Rng.create 55 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let omega = Omega.make ~rng ~pattern ~leader:2 ~stab_time:50 () in
  let _, verdict, _ =
    run_extraction ~pattern
      ~policy:(Policy.random (Rng.create 56))
      ~f
      ~detector:omega ~equal:Pid.equal
      ~phi:(Phi.with_batches 4 (Phi.omega ~n_plus_1 ~f)) ()
  in
  expect_ok "extract with batches" verdict

let test_extract_batches_stall_on_crash () =
  (* With w > 0 and a crash before stabilization-side sampling can
     complete the batches, the output must stay Π — which is legal
     exactly because somebody crashed. *)
  let n_plus_1 = 3 and f = 2 in
  let rng = Rng.create 66 in
  let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (0, 10) ] in
  let omega = Omega.make ~rng ~pattern ~leader:2 ~stab_time:0 () in
  let ex, verdict, _ =
    run_extraction ~pattern
      ~policy:(Policy.random (Rng.create 67))
      ~f
      ~detector:omega ~equal:Pid.equal
      ~phi:(Phi.with_batches 1_000 (Phi.omega ~n_plus_1 ~f)) ()
  in
  expect_ok "stalled batches still legal" verdict;
  Pid.Set.iter
    (fun p ->
      match Extract_upsilon.current_output ex p with
      | Some s ->
          checkb "output stays Pi" true (Pid.Set.equal s (Pid.Set.full ~n_plus_1))
      | None -> Alcotest.fail "no output")
    (Failure_pattern.correct pattern)

let test_extract_round_robin_schedule () =
  let n_plus_1 = 3 and f = 2 in
  let rng = Rng.create 77 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let omega = Omega.make ~rng ~pattern ~leader:1 ~stab_time:30 () in
  let _, verdict, _ =
    run_extraction ~pattern ~policy:(Policy.round_robin ()) ~f
      ~detector:omega ~equal:Pid.equal
      ~phi:(Phi.omega ~n_plus_1 ~f) ()
  in
  expect_ok "extraction under round robin" verdict

(* -- pairwise reductions ------------------------------------------------------- *)

let test_upsilon_of_omega_k () =
  for seed = 1 to 20 do
    let rng = Rng.create (seed * 3) in
    let n_plus_1 = 3 + (seed mod 3) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
        ~latest:50
    in
    let d = Omega_k.make ~rng ~pattern ~k:(n_plus_1 - 1) ~stab_time:60 () in
    let u = Pairwise.upsilon_of_omega_k ~n_plus_1 d in
    match Upsilon.check u ~pattern ~stab_by:60 ~horizon:160 with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "omega_k -> upsilon seed %d: %s" seed msg
  done

let test_upsilon_f_of_omega_f () =
  (* Ωᶠ → Υᶠ: complement has size n+1−f. *)
  for seed = 1 to 20 do
    let rng = Rng.create (seed * 7) in
    let n_plus_1 = 4 in
    let f = 1 + (seed mod 3) in
    let pattern = Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:50 in
    let d = Omega_k.make ~rng ~pattern ~k:f ~stab_time:60 () in
    let u = Pairwise.upsilon_of_omega_k ~n_plus_1 d in
    match Upsilon_f.check u ~pattern ~f ~stab_by:60 ~horizon:160 with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "omega_f -> upsilon_f seed %d: %s" seed msg
  done

let test_omega_upsilon_equivalence_2proc () =
  (* §4: in a 2-process system, Ω and Υ are interconvertible. *)
  for seed = 1 to 20 do
    let rng = Rng.create (seed * 13) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1:2 ~max_faulty:1 ~latest:40
    in
    (* Ω → Υ *)
    let omega = Omega.make ~rng ~pattern ~stab_time:50 () in
    let u = Pairwise.upsilon_of_omega ~n_plus_1:2 omega in
    (match Upsilon.check u ~pattern ~stab_by:50 ~horizon:150 with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "omega -> upsilon seed %d: %s" seed msg);
    (* Υ → Ω *)
    let upsilon = Upsilon.make ~rng ~pattern ~stab_time:50 () in
    let om = Pairwise.omega_of_upsilon_2proc upsilon in
    (* the leader map may differ across processes only on faulty ones *)
    match Omega.check om ~pattern ~stab_by:50 ~horizon:150 with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "upsilon -> omega seed %d: %s" seed msg
  done

let test_anti_omega_of_omega () =
  for seed = 1 to 20 do
    let rng = Rng.create (seed * 17) in
    let n_plus_1 = 3 + (seed mod 3) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
        ~latest:40
    in
    let omega = Omega.make ~rng ~pattern ~stab_time:50 () in
    let anti = Pairwise.anti_omega_of_omega ~n_plus_1 omega in
    match Anti_omega.check anti ~pattern ~stab_by:50 ~horizon:250 with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "omega -> anti seed %d: %s" seed msg
  done

let test_omega_of_ev_perfect () =
  (* ◇P → Ω: the smallest unsuspected process is eventually the smallest
     correct process at every correct process. *)
  for seed = 1 to 20 do
    let rng = Rng.create (seed * 19) in
    let n_plus_1 = 3 + (seed mod 3) in
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
        ~latest:40
    in
    let dp = Ev_perfect.make ~rng ~pattern ~stab_time:50 () in
    let stable_from = Ev_perfect.stable_from ~pattern ~stab_time:50 in
    let omega = Pairwise.omega_of_ev_perfect ~n_plus_1 dp in
    (match Omega.check omega ~pattern ~stab_by:stable_from ~horizon:(stable_from + 120) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "ev_perfect -> omega seed %d: %s" seed msg);
    (* the elected leader is exactly the smallest correct pid *)
    let expected =
      Pid.Set.min_elt (Failure_pattern.correct pattern)
    in
    checkb "smallest correct elected" true
      (Pid.equal (Detector.sample omega 0 (stable_from + 1)) expected)
  done

let test_ev_perfect_of_perfect () =
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (1, 20) ] in
  let p = Perfect.make ~pattern in
  let dp = Pairwise.ev_perfect_of_perfect p in
  match Ev_perfect.check dp ~pattern ~stab_by:0 ~horizon:60 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "perfect is trivially ev_perfect: %s" msg

let test_omega_from_upsilon1 () =
  (* §5.3: Υ¹ → Ω in E₁, both branches (proper subset / Π). *)
  let n_plus_1 = 3 in
  let run_case ~crashes ~stable_set label =
    let rng = Rng.create 88 in
    let pattern = Failure_pattern.make ~n_plus_1 ~crashes in
    let d = Upsilon_f.make ~rng ~pattern ~f:1 ~stable_set ~stab_time:40 () in
    let red =
      Pairwise.Omega_from_upsilon1.create ~name:"o1" ~n_plus_1 ~upsilon1:d
    in
    let result =
      Run.exec ~pattern
        ~policy:(Policy.random (Rng.create 89))
        ~horizon:60_000
        ~procs:(fun pid -> Pairwise.Omega_from_upsilon1.fibers red ~me:pid)
        ()
    in
    match
      Pairwise.Omega_from_upsilon1.check red ~pattern
        ~last_time:result.Run.last_time
        ~tail:10_000
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" label msg
  in
  (* proper subset branch: U of size n = 2; elect the complement *)
  run_case ~crashes:[ (0, 30) ]
    ~stable_set:(Pid.Set.of_indices [ 0; 2 ])
    "proper-subset branch";
  (* Π branch: one faulty process; timestamp election *)
  run_case ~crashes:[ (0, 30) ]
    ~stable_set:(Pid.Set.full ~n_plus_1)
    "full-set branch"

(* -- adversary (Theorems 1 and 5) ------------------------------------------------ *)

let test_adversary_defeats_every_candidate () =
  List.iter
    (fun cand ->
      let verdict =
        Adversary.run cand ~n_plus_1:4 ~f:3 ~max_phases:25 ~phase_budget:6_000
      in
      match verdict with
      | Adversary.Never_stabilizes _ | Adversary.Stuck _ -> ())
    Adversary.Candidates.all

let test_adversary_static_gets_stuck () =
  match
    Adversary.run Adversary.Candidates.static ~n_plus_1:4 ~f:3 ~max_phases:10
      ~phase_budget:4_000
  with
  | Adversary.Stuck { on; _ } ->
      checkb "stuck on its constant" true
        (Pid.Set.equal on (Pid.Set.of_indices [ 0; 1; 2 ]))
  | Adversary.Never_stabilizes _ ->
      Alcotest.fail "static candidate cannot flip"

let test_adversary_flips_top_movers () =
  match
    Adversary.run Adversary.Candidates.top_movers ~n_plus_1:4 ~f:2
      ~max_phases:20 ~phase_budget:8_000
  with
  | Adversary.Never_stabilizes { flips; _ } ->
      checkb "many forced flips" true (flips >= 20)
  | Adversary.Stuck { phase; _ } ->
      (* Even getting stuck is a defeat; but the schedule should keep it
         moving: require several phases happened first. *)
      checkb "ran several phases before sticking" true (phase >= 1)

(* §5.3 and the top-movers candidate grow register timestamps: every
   stamp bump is a [Write] step on the stamp register, and each must
   count as a register write. A register counts an operation when its
   step runs, so a write still parked when the run stops is not
   counted. *)
let stamp_writes ~prefix trace =
  List.length
    (List.filter
       (function
         | Trace.Step { kind = Sim.Write { obj }; _ } ->
             String.starts_with ~prefix obj
         | Trace.Step _ | Trace.Crash _ -> false)
       trace)

let check_stamp_writes label ~prefix run =
  let b = Trace.builder () in
  let (), snap, _ = Testutil.measured (fun () -> run (Trace.record b)) in
  let stamps = stamp_writes ~prefix (Trace.finish b) in
  checkb (label ^ ": stamps were bumped") true (stamps > 0);
  checki (label ^ ": every stamp write is a register write") stamps
    (Testutil.counter snap "memory.register.writes")

(* E6's Υ¹ -> Ω world, stopped after [horizon] steps; [parked] gets the
   steps still pending at the stop *)
let e6_world ~horizon ~parked observe =
  let n_plus_1 = 3 in
  let rng = Rng.create 500 in
  let pattern = Failure_pattern.random rng ~n_plus_1 ~max_faulty:1 ~latest:60 in
  let d = Upsilon_f.make ~rng ~pattern ~f:1 ~stab_time:40 () in
  let red =
    Pairwise.Omega_from_upsilon1.create ~name:"o1" ~n_plus_1 ~upsilon1:d
  in
  let sched =
    Scheduler.observed ~observe ~pattern
      ~policy:(Policy.random (Rng.split rng))
      ~fibers:
        (Run.fibers ~pattern ~procs:(fun pid ->
             Pairwise.Omega_from_upsilon1.fibers red ~me:pid))
      ()
  in
  ignore (Scheduler.run sched ~max_steps:horizon);
  parked (Scheduler.pending sched)

let stamp_write_parked pending =
  checkb "a stamp write is parked at the horizon" true
    (List.exists
       (function
         | _, Sim.Write { obj } -> String.starts_with ~prefix:"o1.ts[" obj
         | _ -> false)
       pending)

let test_stamp_writes_counted () =
  check_stamp_writes "omega from upsilon1" ~prefix:"o1.ts["
    (e6_world ~horizon:5_000 ~parked:ignore);
  check_stamp_writes "omega from upsilon1, parked write" ~prefix:"o1.ts["
    (e6_world ~horizon:5_001 ~parked:stamp_write_parked);
  (* E3's top-movers candidate against the pinned Υ, round-robin as in
     the adversary's warm-up *)
  check_stamp_writes "top-movers" ~prefix:"cand.ts[" (fun observe ->
      let n_plus_1 = 3 in
      let inst =
        Adversary.Candidates.top_movers.Adversary.make ~n_plus_1 ~f:2
          ~upsilon:(Adversary.pinned_upsilon ~n_plus_1)
      in
      ignore
        (Run.exec
           ~pattern:(Failure_pattern.no_failures ~n_plus_1)
           ~policy:(Policy.round_robin ()) ~horizon:5_000
           ~observers:[ observe ] ~procs:inst.Adversary.fibers ()));
  (* the adversary itself (E3's parameters): a top-movers run writes
     nothing but stamps *)
  let _, snap, _ =
    Testutil.measured (fun () ->
        Adversary.run Adversary.Candidates.top_movers ~n_plus_1:3 ~f:2
          ~max_phases:5 ~phase_budget:2_000)
  in
  let writes = Testutil.counter snap "kernel.scheduler.steps{kind=write}" in
  checkb "adversary: stamps were bumped" true (writes > 0);
  checki "adversary: every write step is a register write" writes
    (Testutil.counter snap "memory.register.writes")

let test_adversary_theorem1_case () =
  (* Theorem 1 is the f = n case (Ωₙ from Υ). *)
  List.iter
    (fun cand ->
      let verdict =
        Adversary.run cand ~n_plus_1:3 ~f:2 ~max_phases:15 ~phase_budget:5_000
      in
      checkb
        (Printf.sprintf "candidate '%s' defeated" cand.Adversary.cand_name)
        true
        (match verdict with
        | Adversary.Never_stabilizes _ | Adversary.Stuck _ -> true))
    Adversary.Candidates.all

let test_adversary_rejects_f_one () =
  (* The theorem needs f >= 2 (at f = 1, Υ¹ ≡ Ω ≡ Ω¹ and the reduction
     exists — see Omega_from_upsilon1). *)
  Alcotest.check_raises "f=1 rejected"
    (Invalid_argument "Adversary.run: theorem needs 2 <= f <= n") (fun () ->
      ignore
        (Adversary.run Adversary.Candidates.static ~n_plus_1:3 ~f:1
           ~max_phases:5 ~phase_budget:100))

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:25 ~name:"fig3 extraction correct over random worlds"
      small_nat
      (fun seed ->
        let rng = Rng.create ((seed * 71) + 13) in
        let n_plus_1 = 3 + (seed mod 2) in
        let f = 2 in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:150
        in
        let omega = Omega.make ~rng ~pattern ~stab_time:120 () in
        let _, verdict, _ =
          run_extraction ~pattern ~policy:(Policy.random rng) ~f
            ~detector:omega ~equal:Pid.equal
            ~phi:(Phi.omega ~n_plus_1 ~f) ()
        in
        verdict = Ok ());
    Test.make ~count:40 ~name:"complement reduction preserves specs" small_nat
      (fun seed ->
        let rng = Rng.create ((seed * 73) + 17) in
        let n_plus_1 = 3 + (seed mod 4) in
        let k = 1 + (seed mod n_plus_1) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
            ~latest:40
        in
        let d = Omega_k.make ~rng ~pattern ~k ~stab_time:50 () in
        let u = Pairwise.upsilon_of_omega_k ~n_plus_1 d in
        (* the complement always avoids the correct set eventually *)
        match Detector.stable_value u pattern ~from:50 ~until:150 with
        | Some s -> not (Pid.Set.equal s (Failure_pattern.correct pattern))
        | None -> false);
  ]

let suite =
  [
    Alcotest.test_case "phi omega avoids leader" `Quick
      test_phi_omega_avoids_leader;
    Alcotest.test_case "phi omega_k disjoint" `Quick test_phi_omega_k_disjoint;
    Alcotest.test_case "phi omega_k needs k<=f" `Quick
      test_phi_omega_k_requires_k_le_f;
    Alcotest.test_case "phi suspicion avoids complement" `Quick
      test_phi_suspicion_avoids_complement;
    Alcotest.test_case "phi upsilon identity" `Quick
      test_phi_upsilon_is_identity;
    Alcotest.test_case "phi vitality branches" `Quick test_phi_vitality_branches;
    Alcotest.test_case "phi with batches" `Quick test_phi_with_batches;
    Alcotest.test_case "extract from omega" `Quick test_extract_from_omega;
    Alcotest.test_case "extract from omega_k" `Quick test_extract_from_omega_k;
    Alcotest.test_case "extract from ev_perfect" `Quick
      test_extract_from_ev_perfect;
    Alcotest.test_case "extract from upsilon_f (identity)" `Quick
      test_extract_from_upsilon_f_is_identity;
    Alcotest.test_case "extract from vitality" `Quick test_extract_from_vitality;
    Alcotest.test_case "extract with batches" `Quick test_extract_with_batches;
    Alcotest.test_case "extract batches stall on crash" `Quick
      test_extract_batches_stall_on_crash;
    Alcotest.test_case "extract under round robin" `Quick
      test_extract_round_robin_schedule;
    Alcotest.test_case "omega_k -> upsilon" `Quick test_upsilon_of_omega_k;
    Alcotest.test_case "omega_f -> upsilon_f" `Quick test_upsilon_f_of_omega_f;
    Alcotest.test_case "omega <-> upsilon (2 procs)" `Quick
      test_omega_upsilon_equivalence_2proc;
    Alcotest.test_case "omega -> anti-omega" `Quick test_anti_omega_of_omega;
    Alcotest.test_case "ev_perfect -> omega" `Quick test_omega_of_ev_perfect;
    Alcotest.test_case "perfect -> ev_perfect" `Quick
      test_ev_perfect_of_perfect;
    Alcotest.test_case "upsilon^1 -> omega" `Quick test_omega_from_upsilon1;
    Alcotest.test_case "adversary defeats all candidates" `Quick
      test_adversary_defeats_every_candidate;
    Alcotest.test_case "adversary: static gets stuck" `Quick
      test_adversary_static_gets_stuck;
    Alcotest.test_case "adversary: top-movers flips" `Quick
      test_adversary_flips_top_movers;
    Alcotest.test_case "adversary: theorem 1 case" `Quick
      test_adversary_theorem1_case;
    Alcotest.test_case "adversary rejects f=1" `Quick
      test_adversary_rejects_f_one;
    Alcotest.test_case "stamp writes are register writes" `Quick
      test_stamp_writes_counted;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
