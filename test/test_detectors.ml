(* Tests for the failure-detector histories: each detector's generated
   history satisfies its own paper specification, checked by the module's
   [check] and by direct probing. *)

open Kernel
open Detectors

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let ok = function
  | Ok () -> true
  | Error msg ->
      Printf.eprintf "spec violation: %s\n" msg;
      false

let pattern_of_seed seed ~n_plus_1 ~max_faulty =
  let rng = Rng.create seed in
  Failure_pattern.random rng ~n_plus_1 ~max_faulty ~latest:60

(* -- Υ -------------------------------------------------------------------- *)

let test_upsilon_spec_random_patterns () =
  for seed = 1 to 50 do
    let rng = Rng.create (seed * 7) in
    let pattern = pattern_of_seed seed ~n_plus_1:4 ~max_faulty:3 in
    let d = Upsilon.make ~rng ~pattern ~stab_time:100 () in
    checkb "upsilon spec" true
      (ok (Upsilon.check d ~pattern ~stab_by:100 ~horizon:300))
  done

let test_upsilon_stable_set_never_correct_set () =
  for seed = 1 to 30 do
    let rng = Rng.create seed in
    let pattern = pattern_of_seed (seed + 100) ~n_plus_1:3 ~max_faulty:2 in
    let d = Upsilon.make ~rng ~pattern ~stab_time:0 () in
    let u = Detector.sample d 0 0 in
    checkb "stable != correct" false
      (Pid.Set.equal u (Failure_pattern.correct pattern))
  done

let test_upsilon_rejects_correct_set_as_stable () =
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 5) ] in
  let rng = Rng.create 1 in
  let correct = Failure_pattern.correct pattern in
  Alcotest.check_raises "stable=correct rejected"
    (Invalid_argument "Upsilon_f.make: stable set equals correct set")
    (fun () ->
      ignore (Upsilon.make ~rng ~pattern ~stable_set:correct ()))

let test_upsilon_paper_example () =
  (* §4's example: 3 processes, p1 faulty; any subset but {p2, p3} is a
     legal stable output. *)
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 10) ] in
  let legal = Upsilon.legal_stable_sets ~pattern in
  checki "6 legal sets" 6 (List.length legal);
  checkb "excludes {p2,p3}" false
    (List.exists (fun s -> Pid.Set.equal s (Pid.Set.of_indices [ 1; 2 ])) legal);
  checkb "includes {p1}" true
    (List.exists (fun s -> Pid.Set.equal s (Pid.Set.of_indices [ 0 ])) legal);
  checkb "includes all of Pi" true
    (List.exists
       (fun s -> Pid.Set.equal s (Pid.Set.of_indices [ 0; 1; 2 ]))
       legal)

let test_upsilon_chaos_respects_range () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:4 in
  let rng = Rng.create 9 in
  let d = Upsilon.make ~rng ~pattern ~stab_time:200 () in
  for t = 0 to 199 do
    List.iter
      (fun p ->
        checkb "non-empty during chaos" false
          (Pid.Set.is_empty (Detector.sample d p t)))
      (Pid.all ~n_plus_1:4)
  done

(* -- Υᶠ ------------------------------------------------------------------- *)

let test_upsilon_f_range_size () =
  let pattern = Failure_pattern.make ~n_plus_1:5 ~crashes:[ (0, 5) ] in
  let rng = Rng.create 2 in
  let f = 2 in
  let d = Upsilon_f.make ~rng ~pattern ~f ~stab_time:50 () in
  for t = 0 to 150 do
    List.iter
      (fun p ->
        checkb "size >= n+1-f" true
          (Pid.Set.cardinal (Detector.sample d p t) >= 5 - f))
      (Pid.all ~n_plus_1:5)
  done;
  checkb "spec" true (ok (Upsilon_f.check d ~pattern ~f ~stab_by:50 ~horizon:200))

let test_upsilon_f_rejects_pattern_outside_env () =
  let pattern = Failure_pattern.make ~n_plus_1:4 ~crashes:[ (0, 1); (1, 2) ] in
  let rng = Rng.create 3 in
  Alcotest.check_raises "pattern outside E_1"
    (Invalid_argument "Upsilon_f.make: pattern outside E_f") (fun () ->
      ignore (Upsilon_f.make ~rng ~pattern ~f:1 ()))

let test_upsilon_equals_upsilon_n () =
  (* Υ = Υⁿ: for f = n the legal stable sets coincide. *)
  let pattern = Failure_pattern.make ~n_plus_1:4 ~crashes:[ (2, 8) ] in
  let a = Upsilon.legal_stable_sets ~pattern in
  let b = Upsilon_f.legal_stable_sets ~pattern ~f:3 in
  checki "same count" (List.length a) (List.length b)

(* -- Ω / Ωₖ ---------------------------------------------------------------- *)

let test_omega_leader_correct () =
  for seed = 1 to 40 do
    let rng = Rng.create seed in
    let pattern = pattern_of_seed (seed + 7) ~n_plus_1:4 ~max_faulty:3 in
    let d = Omega.make ~rng ~pattern ~stab_time:80 () in
    checkb "omega spec" true
      (ok (Omega.check d ~pattern ~stab_by:80 ~horizon:200))
  done

let test_omega_rejects_faulty_leader () =
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 5) ] in
  let rng = Rng.create 4 in
  Alcotest.check_raises "faulty leader rejected"
    (Invalid_argument "Omega.make: leader must be correct") (fun () ->
      ignore (Omega.make ~rng ~pattern ~leader:0 ()))

let test_omega_k_spec () =
  for seed = 1 to 40 do
    let rng = Rng.create (seed * 3) in
    let pattern = pattern_of_seed (seed + 21) ~n_plus_1:5 ~max_faulty:4 in
    let k = 1 + (seed mod 4) in
    let d = Omega_k.make ~rng ~pattern ~k ~stab_time:60 () in
    checkb "omega_k spec" true
      (ok (Omega_k.check d ~pattern ~k ~stab_by:60 ~horizon:150))
  done

let test_omega_1_is_omega () =
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (1, 4) ] in
  let rng = Rng.create 5 in
  let d = Omega_k.make ~rng ~pattern ~k:1 ~stab_time:0 () in
  let s = Detector.sample d 0 10 in
  checki "singleton" 1 (Pid.Set.cardinal s);
  checkb "member is correct" true
    (Failure_pattern.is_correct pattern (Pid.Set.choose s))

(* -- P / ◇P ----------------------------------------------------------------- *)

let test_perfect_tracks_crashes_exactly () =
  let pattern = Failure_pattern.make ~n_plus_1:4 ~crashes:[ (1, 10); (3, 20) ] in
  let d = Perfect.make ~pattern in
  checkb "spec" true (ok (Perfect.check d ~pattern ~horizon:50));
  checki "nobody at t=5" 0 (Pid.Set.cardinal (Detector.sample d 0 5));
  checki "one at t=15" 1 (Pid.Set.cardinal (Detector.sample d 0 15));
  checki "two at t=25" 2 (Pid.Set.cardinal (Detector.sample d 0 25))

let test_ev_perfect_eventually_exact () =
  for seed = 1 to 30 do
    let rng = Rng.create seed in
    let pattern = pattern_of_seed (seed + 50) ~n_plus_1:4 ~max_faulty:3 in
    let d = Ev_perfect.make ~rng ~pattern ~stab_time:70 () in
    checkb "ev_perfect spec" true
      (ok (Ev_perfect.check d ~pattern ~stab_by:70 ~horizon:200))
  done

let test_ev_perfect_is_stable_detector () =
  (* After chaos and all crashes, the value is constant = faulty(F):
     ◇P belongs to the paper's stable class (§6.2). *)
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (2, 30) ] in
  let rng = Rng.create 8 in
  let d = Ev_perfect.make ~rng ~pattern ~stab_time:10 () in
  let from = Ev_perfect.stable_from ~pattern ~stab_time:10 in
  match Detector.stable_value d pattern ~from ~until:(from + 100) with
  | Some s ->
      checkb "stable value = faulty set" true
        (Pid.Set.equal s (Failure_pattern.faulty pattern))
  | None -> Alcotest.fail "ev_perfect did not stabilize"

(* -- anti-Ω ------------------------------------------------------------------ *)

let test_anti_omega_spares_a_correct_process () =
  for seed = 1 to 30 do
    let rng = Rng.create seed in
    let pattern = pattern_of_seed (seed + 11) ~n_plus_1:4 ~max_faulty:3 in
    let d = Anti_omega.make ~rng ~pattern ~stab_time:50 () in
    checkb "anti-omega spec" true
      (ok (Anti_omega.check d ~pattern ~stab_by:50 ~horizon:300))
  done

let test_anti_omega_is_unstable () =
  (* In a system with >= 3 processes the post-stabilization output keeps
     changing: anti-Ω genuinely sits outside the stable class. *)
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  let rng = Rng.create 6 in
  let d = Anti_omega.make ~rng ~pattern ~stab_time:0 () in
  checkb "no stable value" true
    (Detector.stable_value d pattern ~from:0 ~until:100 = None)

(* -- dummy / vitality ---------------------------------------------------------- *)

let test_dummy_is_constant () =
  let d =
    Dummy.make ~value:"x" ~pp:Format.pp_print_string ~equal:String.equal
      ~id:(Type.Id.make ()) ()
  in
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  match Detector.stable_value d pattern ~from:0 ~until:50 with
  | Some "x" -> ()
  | Some _ | None -> Alcotest.fail "dummy not constant"

let test_vitality_verdict () =
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 15) ] in
  let rng = Rng.create 10 in
  let alive = Vitality.make ~rng ~pattern ~watched:1 ~stab_time:40 () in
  let dead = Vitality.make ~rng ~pattern ~watched:0 ~stab_time:40 () in
  checkb "watched-correct spec" true
    (ok (Vitality.check alive ~pattern ~watched:1 ~stab_by:40 ~horizon:120));
  checkb "watched-faulty spec" true
    (ok (Vitality.check dead ~pattern ~watched:0 ~stab_by:40 ~horizon:120));
  checkb "verdicts differ" true
    (Detector.sample alive 1 50 <> Detector.sample dead 1 50)

(* -- querying from inside a run ------------------------------------------------ *)

let test_query_consumes_step_and_reads_history () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let rng = Rng.create 13 in
  let d = Omega.make ~rng ~pattern ~leader:1 ~stab_time:0 () in
  let src = Detector.source d in
  let seen = ref [] in
  let body () =
    for _ = 1 to 3 do
      seen := Sim.query src :: !seen
    done
  in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ body ])
      ()
  in
  checki "six steps" 6 result.steps;
  checkb "all queries saw the stable leader" true
    (List.for_all (fun l -> l = 1) !seen);
  checki "queries traced" 6
    (List.length (Trace.queries (Run.trace result) ~detector:"omega"))

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:60 ~name:"upsilon_f spec holds for random (n, f, seed)"
      small_nat
      (fun seed ->
        let n_plus_1 = 3 + (seed mod 4) in
        let f = 1 + (seed mod (n_plus_1 - 1)) in
        let rng = Rng.create (seed + 17) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:40
        in
        let d = Upsilon_f.make ~rng ~pattern ~f ~stab_time:60 () in
        ok (Upsilon_f.check d ~pattern ~f ~stab_by:60 ~horizon:160));
    Test.make ~count:60 ~name:"histories are pure functions of (pid, time)"
      small_nat
      (fun seed ->
        let rng = Rng.create seed in
        let pattern =
          Failure_pattern.random rng ~n_plus_1:4 ~max_faulty:2 ~latest:30
        in
        let d = Upsilon.make ~rng ~pattern () in
        List.for_all
          (fun p ->
            List.for_all
              (fun t ->
                Pid.Set.equal (Detector.sample d p t) (Detector.sample d p t))
              [ 0; 3; 17; 64; 200 ])
          (Pid.all ~n_plus_1:4));
  ]

let suite =
  [
    Alcotest.test_case "upsilon spec (random patterns)" `Quick
      test_upsilon_spec_random_patterns;
    Alcotest.test_case "upsilon avoids correct set" `Quick
      test_upsilon_stable_set_never_correct_set;
    Alcotest.test_case "upsilon rejects correct set" `Quick
      test_upsilon_rejects_correct_set_as_stable;
    Alcotest.test_case "upsilon paper example (3 procs)" `Quick
      test_upsilon_paper_example;
    Alcotest.test_case "upsilon chaos in range" `Quick
      test_upsilon_chaos_respects_range;
    Alcotest.test_case "upsilon_f range size" `Quick test_upsilon_f_range_size;
    Alcotest.test_case "upsilon_f env check" `Quick
      test_upsilon_f_rejects_pattern_outside_env;
    Alcotest.test_case "upsilon = upsilon^n" `Quick test_upsilon_equals_upsilon_n;
    Alcotest.test_case "omega leader correct" `Quick test_omega_leader_correct;
    Alcotest.test_case "omega rejects faulty leader" `Quick
      test_omega_rejects_faulty_leader;
    Alcotest.test_case "omega_k spec" `Quick test_omega_k_spec;
    Alcotest.test_case "omega_1 = omega" `Quick test_omega_1_is_omega;
    Alcotest.test_case "perfect tracks crashes" `Quick
      test_perfect_tracks_crashes_exactly;
    Alcotest.test_case "ev_perfect eventually exact" `Quick
      test_ev_perfect_eventually_exact;
    Alcotest.test_case "ev_perfect is stable" `Quick
      test_ev_perfect_is_stable_detector;
    Alcotest.test_case "anti-omega spares correct" `Quick
      test_anti_omega_spares_a_correct_process;
    Alcotest.test_case "anti-omega unstable" `Quick test_anti_omega_is_unstable;
    Alcotest.test_case "dummy constant" `Quick test_dummy_is_constant;
    Alcotest.test_case "vitality verdict" `Quick test_vitality_verdict;
    Alcotest.test_case "query = one step" `Quick
      test_query_consumes_step_and_reads_history;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
