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
    Dummy.make ~value:"x" ~render:Fun.id ~equal:String.equal
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
  let seen = ref [] in
  let body () =
    for _ = 1 to 3 do
      seen := Sim.query d :: !seen
    done
  in
  let result, trace =
    Testutil.exec_traced ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ body ])
      ()
  in
  checki "six steps" 6 result.steps;
  checkb "all queries saw the stable leader" true
    (List.for_all (fun l -> l = 1) !seen);
  checki "queries traced" 6
    (List.length (Trace.queries trace ~detector:"omega"))

(* -- forged violations ------------------------------------------------------ *)

(* A forged history of the oracle's value type. Each check names the
   first violation of a scan that runs time by time and, within a time,
   process by process: a history that violates at several points also
   violates one step later at an earlier process, which a
   process-by-process scan would report instead. *)
let forged ~render ~equal ~id sample =
  Sim.source ~name:"forged" ~sample ~render ~equal ~id

let forged_pid = forged ~render:Pid.to_string ~equal:Pid.equal ~id:Sim.Witness.pid

let forged_set =
  forged ~render:Pid.Set.to_string ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set

let forged_bool =
  forged ~render:Bool.to_string ~equal:Bool.equal ~id:Sim.Witness.bool

let set = Pid.Set.of_indices

let check_error name want got =
  Alcotest.(check (result unit string)) name (Error want) got

let test_forged_violations () =
  let p3_crashes = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (2, 10) ] in
  let crashed_by = Failure_pattern.crashed_by p3_crashes in
  check_error "omega: no stable leader" "no common stable leader on [20, 60]"
    (Omega.check
       (forged_pid (fun p time -> if p = 0 && time = 40 then 1 else 0))
       ~pattern:p3_crashes ~stab_by:20 ~horizon:60);
  check_error "omega: faulty leader" "stable leader p3 is faulty"
    (Omega.check (forged_pid (fun _ _ -> 2)) ~pattern:p3_crashes ~stab_by:20
       ~horizon:60);
  check_error "omega_k: size" "output {p1} at (p2, 3) has size 1, want 2"
    (Omega_k.check
       (forged_set (fun p time ->
            match (p, time) with
            | 1, 3 -> set [ 0 ]
            | 2, 3 -> set [ 0; 1; 2 ]
            | 0, 4 -> Pid.Set.empty
            | _ -> set [ 0; 1 ]))
       ~pattern:p3_crashes ~k:2 ~stab_by:20 ~horizon:60);
  let p1_p2_crash =
    Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 5); (1, 6) ]
  in
  check_error "omega_k: stable set"
    "stable set {p1, p2} contains no correct process"
    (Omega_k.check
       (forged_set (fun _ _ -> set [ 0; 1 ]))
       ~pattern:p1_p2_crash ~k:2 ~stab_by:20 ~horizon:60);
  check_error "anti-omega: nobody spared"
    "every correct process was output somewhere in [0, 30]"
    (Anti_omega.check
       (forged_pid (fun _ time -> time mod 3))
       ~pattern:(Failure_pattern.no_failures ~n_plus_1:3)
       ~stab_by:0 ~horizon:30);
  check_error "ev_perfect: wrong suspicions" "at (p2, 15): got {p1}, want {p3}"
    (Ev_perfect.check
       (forged_set (fun p time ->
            match (p, time) with
            | 1, 15 -> set [ 0 ]
            | 2, 15 -> Pid.Set.empty
            | 0, 16 -> Pid.Set.empty
            | _ -> crashed_by time))
       ~pattern:p3_crashes ~stab_by:5 ~horizon:40);
  check_error "perfect: wrong suspicions" "at (p3, 2): got {p2}, want {}"
    (Perfect.check
       (forged_set (fun p time ->
            match (p, time) with
            | 2, 2 -> set [ 1 ]
            | 0, 3 -> set [ 2 ]
            | _ -> crashed_by time))
       ~pattern:p3_crashes ~horizon:40);
  let p1_crashes = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (0, 5) ] in
  check_error "vitality: wrong verdict"
    (Format.asprintf "stable verdict true disagrees with pattern %a"
       Failure_pattern.pp p1_crashes)
    (Vitality.check (forged_bool (fun _ _ -> true)) ~pattern:p1_crashes
       ~watched:0 ~stab_by:20 ~horizon:60);
  check_error "upsilon_f: range" "range violated at (p3, 4): {p1}"
    (Upsilon_f.check
       (forged_set (fun p time ->
            match (p, time) with
            | 2, 4 -> set [ 0 ]
            | 0, 5 -> Pid.Set.empty
            | _ -> set [ 0; 1; 2 ]))
       ~pattern:p3_crashes ~f:1 ~stab_by:20 ~horizon:60);
  check_error "upsilon_f: stable value"
    "stable value {p1, p2} equals the correct set"
    (Upsilon_f.check
       (forged_set (fun _ _ -> set [ 0; 1 ]))
       ~pattern:p3_crashes ~f:1 ~stab_by:20 ~horizon:60);
  (* a heartbeat engine whose monitors never ran suspects nobody: the
     first crashed process it leaves unsuspected after the last crash *)
  let p2_p3_crash =
    Failure_pattern.make ~n_plus_1:3 ~crashes:[ (1, 5); (2, 7) ]
  in
  check_error "hb_ev_strong: completeness"
    "completeness: at (p1, 8) crashed p2 is unsuspected"
    (Hb_ev_strong.check
       (Hb_ev_strong.make ~n_plus_1:3 ~net:Link.default_config ())
       ~pattern:p2_p3_crash ~horizon:100)

(* Past n+1 = 20, where listing every subset is out of reach, the pick
   still lands on a legal set: n+1-f members or more, not the correct
   set. At n+1 = 62 and 63 with f = n the legal sets outnumber what
   [Rng.int] can index. *)
let test_upsilon_f_pick_large_systems () =
  List.iter
    (fun (n_plus_1, f) ->
      for seed = 1 to 5 do
        let pattern =
          Failure_pattern.random (Rng.create seed) ~n_plus_1 ~max_faulty:f
            ~latest:40
        in
        let u = Upsilon_f.pick_stable_set (Rng.create seed) ~pattern ~f in
        let name = Printf.sprintf "n+1=%d f=%d seed %d" n_plus_1 f seed in
        checkb (name ^ ": size") true (Pid.Set.cardinal u >= n_plus_1 - f);
        checkb (name ^ ": not the correct set") false
          (Pid.Set.equal u (Failure_pattern.correct pattern));
        checkb (name ^ ": same seed, same set") true
          (Pid.Set.equal u
             (Upsilon_f.pick_stable_set (Rng.create seed) ~pattern ~f))
      done)
    [ (21, 20); (21, 1); (40, 3); (62, 61); (62, 30); (63, 62); (63, 1) ]

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:200
      ~name:"stable-set pick = Rng.pick over the listed legal sets"
      (triple (int_range 2 10) int int)
      (fun (n_plus_1, pattern_seed, seed) ->
        let pattern =
          Failure_pattern.random (Rng.create pattern_seed) ~n_plus_1
            ~max_faulty:(n_plus_1 - 1) ~latest:40
        in
        List.for_all
          (fun f ->
            let a = Rng.create seed and b = Rng.create seed in
            Pid.Set.equal
              (Upsilon_f.pick_stable_set a ~pattern ~f)
              (Rng.pick b (Upsilon_f.legal_stable_sets ~pattern ~f))
            (* and the generator is left where the listed pick leaves it *)
            && Rng.int a max_int = Rng.int b max_int)
          (List.init (n_plus_1 - 1) (fun i -> i + 1)));
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
    Alcotest.test_case "upsilon_f pick at n+1 up to 63" `Quick
      test_upsilon_f_pick_large_systems;
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
    Alcotest.test_case "forged violations: first one reported" `Quick
      test_forged_violations;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
