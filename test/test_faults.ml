(* Failure-injection campaigns: sweep the crash instant across the whole
   critical window so crashes land inside every protocol phase
   (mid-converge, mid-snapshot, before/after publishing), plus
   whole-trace consistency checks (run-condition 2) and cross-run
   determinism of full protocol stacks. *)

open Kernel
open Detectors
open Agreement

let checkb = Alcotest.check Alcotest.bool

(* -- crash-point sweeps -------------------------------------------------- *)

let test_fig1_crash_point_sweep () =
  (* Crash p1 at every time in [0, 80]: whatever phase the crash lands
     in, the survivors must still satisfy the spec. *)
  let n_plus_1 = 3 in
  for crash_at = 0 to 80 do
    let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (0, crash_at) ] in
    let rng = Rng.create 1234 in
    let upsilon = Upsilon.make ~rng ~pattern ~stab_time:40 () in
    let proto =
      Upsilon_sa.create ~name:"cs" ~n_plus_1
        ~upsilon:(Detector.source upsilon) ()
    in
    let _ =
      Run.exec ~pattern
        ~policy:(Policy.random (Rng.create 4321))
        ~horizon:1_000_000
        ~procs:(fun pid ->
          [ Upsilon_sa.proposer proto ~me:pid ~input:(100 + pid) ])
        ()
    in
    let verdict =
      Sa_spec.check ~k:(n_plus_1 - 1) ~pattern
        ~proposals:(List.map (fun p -> (p, 100 + p)) (Pid.all ~n_plus_1))
        ~decisions:(Upsilon_sa.decisions proto)
        ()
    in
    if not (Sa_spec.all_ok verdict) then
      Alcotest.failf "crash at %d: %a" crash_at Sa_spec.pp verdict
  done

let test_fig2_crash_point_sweep () =
  (* Same sweep for Fig 2 in the gladiator-gated configuration, so the
     crash can land inside the A[r][k] snapshot machinery. *)
  let n_plus_1 = 3 in
  let f = 2 in
  for crash_at = 0 to 60 do
    let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (2, crash_at) ] in
    let rng = Rng.create 99 in
    let upsilon_f =
      Upsilon_f.make ~rng ~pattern ~f ~stable_set:(Pid.Set.full ~n_plus_1)
        ~stab_time:0 ()
    in
    let proto =
      Upsilon_f_sa.create ~name:"cs2" ~n_plus_1 ~f
        ~upsilon_f:(Detector.source upsilon_f) ()
    in
    let _ =
      Run.exec ~pattern
        ~policy:(Policy.round_robin ())
        ~horizon:1_000_000
        ~procs:(fun pid ->
          [ Upsilon_f_sa.proposer proto ~me:pid ~input:(200 + pid) ])
        ()
    in
    let verdict =
      Sa_spec.check ~k:f ~pattern
        ~proposals:(List.map (fun p -> (p, 200 + p)) (Pid.all ~n_plus_1))
        ~decisions:(Upsilon_f_sa.decisions proto)
        ()
    in
    if not (Sa_spec.all_ok verdict) then
      Alcotest.failf "crash at %d: %a" crash_at Sa_spec.pp verdict
  done

let test_converge_crash_point_sweep () =
  (* Crash one of three converge participants at each instant of its
     execution; survivors must keep all properties. *)
  for crash_at = 0 to 50 do
    let n = 3 in
    let pattern = Failure_pattern.make ~n_plus_1:n ~crashes:[ (1, crash_at) ] in
    let inst = Converge.create ~name:"cv" ~k:2 ~size:n ~compare:Int.compare in
    let results = ref [] in
    let body pid () =
      let picked, committed = Converge.run inst ~me:pid (pid * 11) in
      results := (pid, picked, committed) :: !results
    in
    let run_result =
      Run.exec ~pattern
        ~policy:(Policy.round_robin ())
        ~horizon:100_000
        ~procs:(fun pid -> [ body pid ])
        ()
    in
    checkb "quiescent" true (run_result.outcome = Scheduler.Quiescent);
    let committed = List.exists (fun (_, _, c) -> c) !results in
    let picked =
      List.sort_uniq Int.compare (List.map (fun (_, v, _) -> v) !results)
    in
    checkb "validity" true
      (List.for_all (fun v -> v = 0 || v = 11 || v = 22) picked);
    checkb "c-agreement" true ((not committed) || List.length picked <= 2)
  done

let test_booster_crash_point_sweep () =
  let n_plus_1 = 3 in
  for crash_at = 0 to 60 do
    let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (0, crash_at) ] in
    let rng = Rng.create 7 in
    let omega_n = Omega_k.make ~rng ~pattern ~k:(n_plus_1 - 1) ~stab_time:30 () in
    let proto =
      Booster_consensus.create ~name:"bcs" ~n_plus_1
        ~omega_n:(Detector.source omega_n)
    in
    let _ =
      Run.exec ~pattern
        ~policy:(Policy.random (Rng.create (crash_at + 1)))
        ~horizon:1_000_000
        ~procs:(fun pid ->
          [ Booster_consensus.proposer proto ~me:pid ~input:(300 + pid) ])
        ()
    in
    let verdict =
      Sa_spec.check ~k:1 ~pattern
        ~proposals:(List.map (fun p -> (p, 300 + p)) (Pid.all ~n_plus_1))
        ~decisions:(Booster_consensus.decisions proto)
        ()
    in
    if not (Sa_spec.all_ok verdict) then
      Alcotest.failf "crash at %d: %a" crash_at Sa_spec.pp verdict
  done

(* -- run-condition (2): query values match the history -------------------- *)

let test_query_values_match_history () =
  let n_plus_1 = 3 in
  let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (1, 50) ] in
  let rng = Rng.create 11 in
  let upsilon = Upsilon.make ~rng ~pattern ~stab_time:30 () in
  let src = Detector.source upsilon in
  let proto =
    Upsilon_sa.create ~name:"q" ~n_plus_1 ~upsilon:src ()
  in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.random (Rng.create 12))
      ~horizon:500_000
      ~procs:(fun pid ->
        [ Upsilon_sa.proposer proto ~me:pid ~input:(100 + pid) ])
      ()
  in
  let violations = Oracle.check_query_values src (Run.trace result) in
  if violations <> [] then
    Alcotest.failf "condition 2 violated: %a" Oracle.pp_violation
      (List.hd violations);
  (* sanity: the protocol really did query *)
  checkb "queries recorded" true
    (Trace.query_values (Run.trace result) ~detector:src.Sim.name <> [])

(* -- cross-run determinism of the full stack -------------------------------- *)

let full_stack_digest seed =
  let rng = Rng.create seed in
  let pattern =
    Failure_pattern.random rng ~n_plus_1:4 ~max_faulty:3 ~latest:100
  in
  let upsilon = Upsilon.make ~rng ~pattern () in
  let proto =
    Upsilon_sa.create ~name:"d" ~n_plus_1:4
      ~upsilon:(Detector.source upsilon) ()
  in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.random (Rng.split rng))
      ~horizon:500_000
      ~procs:(fun pid ->
        [ Upsilon_sa.proposer proto ~me:pid ~input:(100 + pid) ])
      ()
  in
  Digest.string (Format.asprintf "%a" Trace.pp (Run.trace result))
  |> Digest.to_hex

let test_full_stack_determinism () =
  for seed = 1 to 10 do
    Alcotest.check Alcotest.string "same digest"
      (full_stack_digest seed) (full_stack_digest seed)
  done;
  checkb "different seeds, different traces" true
    (full_stack_digest 1 <> full_stack_digest 2)

(* -- large-system soak ---------------------------------------------------- *)

let test_soak_large_system () =
  (* n+1 = 10 with 9 potential crashes: the protocols and substrates must
     scale beyond toy sizes. *)
  let n_plus_1 = 10 in
  let rng = Rng.create 77 in
  let pattern =
    Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1) ~latest:500
  in
  let upsilon = Upsilon.make ~rng ~pattern () in
  let proto =
    Upsilon_sa.create ~name:"soak" ~n_plus_1
      ~upsilon:(Detector.source upsilon) ()
  in
  let result =
    Run.exec ~pattern ~policy:(Policy.random rng) ~horizon:5_000_000
      ~procs:(fun pid ->
        [ Upsilon_sa.proposer proto ~me:pid ~input:(100 + pid) ])
      ()
  in
  ignore result;
  let verdict =
    Sa_spec.check ~k:(n_plus_1 - 1) ~pattern
      ~proposals:(List.map (fun p -> (p, 100 + p)) (Pid.all ~n_plus_1))
      ~decisions:(Upsilon_sa.decisions proto)
      ()
  in
  if not (Sa_spec.all_ok verdict) then
    Alcotest.failf "soak: %a" Sa_spec.pp verdict

let suite =
  [
    Alcotest.test_case "fig1 crash-point sweep" `Quick
      test_fig1_crash_point_sweep;
    Alcotest.test_case "fig2 crash-point sweep (gated)" `Quick
      test_fig2_crash_point_sweep;
    Alcotest.test_case "converge crash-point sweep" `Quick
      test_converge_crash_point_sweep;
    Alcotest.test_case "booster crash-point sweep" `Quick
      test_booster_crash_point_sweep;
    Alcotest.test_case "run-condition 2 (query values)" `Quick
      test_query_values_match_history;
    Alcotest.test_case "full-stack determinism" `Quick
      test_full_stack_determinism;
    Alcotest.test_case "soak: 10 processes, 9 faults" `Quick
      test_soak_large_system;
  ]
