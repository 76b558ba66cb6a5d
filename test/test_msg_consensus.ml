(* End-to-end message-passing consensus: Omega + commit-adopt over
   ABD-emulated registers. Safety and termination under random schedules
   with minority crashes, plus linearizability of the underlying memory
   in every run. *)

open Kernel
open Detectors
open Agreement

let checkb = Alcotest.check Alcotest.bool

let run_msg_consensus ~seed ~n_plus_1 ~max_faulty =
  let rng = Rng.create seed in
  let pattern =
    Failure_pattern.random rng ~n_plus_1 ~max_faulty ~latest:400
  in
  let omega = Omega.make ~rng ~pattern () in
  let proto =
    Msg_consensus.create ~name:"mc" ~n_plus_1 ~omega
  in
  let result =
    Run.exec ~pattern ~policy:(Policy.random rng) ~horizon:3_000_000
      ~procs:(fun pid -> Msg_consensus.fibers proto ~me:pid ~input:(800 + pid))
      ()
  in
  let verdict =
    Sa_spec.check ~k:1 ~pattern
      ~proposals:(List.map (fun p -> (p, 800 + p)) (Pid.all ~n_plus_1))
      ~decisions:(Msg_consensus.decisions proto)
      ()
  in
  (verdict, proto, pattern, result)

let test_failure_free () =
  let verdict, proto, _, _ =
    run_msg_consensus ~seed:1 ~n_plus_1:3 ~max_faulty:0
  in
  if not (Sa_spec.all_ok verdict) then
    Alcotest.failf "failure-free: %a" Sa_spec.pp verdict;
  checkb "memory linearizable" true (Msg_consensus.check_memory proto = Ok ())

let test_minority_crashes () =
  for seed = 1 to 8 do
    let n_plus_1 = 3 + (2 * (seed mod 2)) in
    (* minority: 1 of 3, or 2 of 5 *)
    let max_faulty = (n_plus_1 - 1) / 2 in
    let verdict, proto, pattern, _ =
      run_msg_consensus ~seed:(seed * 13) ~n_plus_1 ~max_faulty
    in
    if not (Sa_spec.all_ok verdict) then
      Alcotest.failf "seed %d (%a): %a" seed Failure_pattern.pp pattern
        Sa_spec.pp verdict;
    match Msg_consensus.check_memory proto with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d memory: %s" seed msg
  done

let test_single_decision_value () =
  for seed = 1 to 8 do
    let _, proto, _, _ =
      run_msg_consensus ~seed:(seed + 400) ~n_plus_1:3 ~max_faulty:1
    in
    let decided =
      Msg_consensus.decisions proto |> List.map snd
      |> List.sort_uniq Int.compare
    in
    checkb "exactly one value" true (List.length decided = 1)
  done

let test_safety_beyond_minority () =
  (* With 2 of 3 crashed (beyond the ABD liveness bound), survivors may
     block forever — but nothing unsafe happens: at most one decided
     value, memory linearizable. *)
  for seed = 1 to 10 do
    let rng = Rng.create (seed * 29) in
    let n_plus_1 = 3 in
    let pattern =
      Failure_pattern.make ~n_plus_1
        ~crashes:[ (0, 10 + seed); (1, 20 + seed) ]
    in
    let omega = Omega.make ~rng ~pattern ~leader:2 () in
    let proto =
      Msg_consensus.create ~name:"mc" ~n_plus_1 ~omega
    in
    let _ =
      Run.exec ~pattern ~policy:(Policy.random rng) ~horizon:150_000
        ~procs:(fun pid ->
          Msg_consensus.fibers proto ~me:pid ~input:(800 + pid))
        ()
    in
    let decided =
      Msg_consensus.decisions proto |> List.map snd
      |> List.sort_uniq Int.compare
    in
    checkb "at most one value" true (List.length decided <= 1);
    checkb "memory linearizable" true
      (Msg_consensus.check_memory proto = Ok ())
  done

let suite =
  [
    Alcotest.test_case "failure-free" `Quick test_failure_free;
    Alcotest.test_case "minority crashes" `Slow test_minority_crashes;
    Alcotest.test_case "single decision value" `Quick
      test_single_decision_value;
    Alcotest.test_case "safety beyond the minority bound" `Quick
      test_safety_beyond_minority;
  ]
