(* Tests for k-converge: the four properties of §5.1 (C-Termination,
   C-Validity, C-Agreement, Convergence) over deterministic and
   randomized schedules, with and without crashes. *)

open Kernel
open Converge

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Run one converge instance: inputs.(pid) is pi's input; crashed
   processes may stop mid-protocol. Returns (pid, picked, committed) for
   every process that finished. *)
let run_converge ?(pattern : Failure_pattern.t option) ~policy ~k inputs =
  let n = Array.length inputs in
  let pattern =
    match pattern with
    | Some p -> p
    | None -> Failure_pattern.no_failures ~n_plus_1:n
  in
  let inst = Converge.create ~name:"cv" ~k ~size:n ~compare:Int.compare in
  let results = ref [] in
  let body pid () =
    let picked, committed = Converge.run inst ~me:pid inputs.(pid) in
    results := (pid, picked, committed) :: !results
  in
  let run_result =
    Run.exec ~pattern ~policy ~horizon:500_000
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  (!results, run_result)

let properties ~k ~inputs results =
  let picked = List.map (fun (_, v, _) -> v) results in
  let committed = List.exists (fun (_, _, c) -> c) results in
  let distinct_picked = List.sort_uniq Int.compare picked in
  let validity =
    List.for_all (fun v -> Array.exists (fun i -> i = v) inputs) picked
  in
  let c_agreement =
    (not committed) || List.length distinct_picked <= k
  in
  let distinct_inputs =
    Array.to_list inputs |> List.sort_uniq Int.compare |> List.length
  in
  let convergence =
    distinct_inputs > k || List.for_all (fun (_, _, c) -> c) results
  in
  (validity, c_agreement, convergence)

let test_convergence_when_few_inputs () =
  (* 4 processes, 2 distinct inputs, k = 2: everyone must commit. *)
  let inputs = [| 5; 5; 9; 9 |] in
  let results, run_result =
    run_converge ~policy:(Policy.round_robin ()) ~k:2 inputs
  in
  checkb "quiescent" true (run_result.outcome = Scheduler.Quiescent);
  checki "all four finished" 4 (List.length results);
  List.iter (fun (_, _, c) -> checkb "committed" true c) results;
  let v, a, c = properties ~k:2 ~inputs results in
  checkb "validity" true v;
  checkb "c-agreement" true a;
  checkb "convergence" true c

let test_single_input_always_commits () =
  let inputs = [| 3; 3; 3 |] in
  let results, _ = run_converge ~policy:(Policy.round_robin ()) ~k:1 inputs in
  List.iter
    (fun (_, v, c) ->
      checki "picked the input" 3 v;
      checkb "committed" true c)
    results

let test_zero_converge_is_identity () =
  let inst = Converge.create ~name:"z" ~k:0 ~size:2 ~compare:Int.compare in
  let out = ref (0, true) in
  let body () = out := Converge.run inst ~me:0 42 in
  let result =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:1)
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ body ])
      ()
  in
  checki "no steps for 0-converge" 0 result.steps;
  checkb "returns (v, false)" true (!out = (42, false))

let test_solo_runner_commits () =
  (* A process running alone sees only its own value: |V1| = 1 <= k. *)
  let inputs = [| 7; 8; 9 |] in
  let inst = Converge.create ~name:"s" ~k:1 ~size:3 ~compare:Int.compare in
  let out = ref (0, false) in
  let body pid () =
    if pid = 2 then out := Converge.run inst ~me:2 inputs.(2)
  in
  let _ =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:3)
      ~policy:(Policy.solo 2)
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  checkb "solo commits own value" true (!out = (9, true))

let test_wait_freedom_with_crashes () =
  (* Crashing processes mid-protocol must not block survivors. *)
  for seed = 1 to 30 do
    let rng = Rng.create seed in
    let n = 4 in
    let pattern =
      Failure_pattern.random rng ~n_plus_1:n ~max_faulty:(n - 1) ~latest:40
    in
    let inputs = Array.init n (fun i -> 10 + i) in
    let results, run_result =
      run_converge ~pattern ~policy:(Policy.random rng) ~k:2 inputs
    in
    checkb "run finished (no livelock)" true
      (run_result.outcome = Scheduler.Quiescent);
    let finished = List.map (fun (p, _, _) -> p) results in
    Pid.Set.iter
      (fun p ->
        checkb "every correct process picked" true (List.mem p finished))
      (Failure_pattern.correct pattern);
    let v, a, _ = properties ~k:2 ~inputs results in
    checkb "validity" true v;
    checkb "c-agreement" true a
  done

let test_c_agreement_exhaustive_small () =
  (* 3 processes, all-distinct inputs, k = 2, every interleaving from a
     seeded random scheduler: whenever someone commits, at most 2 values
     are picked. *)
  for seed = 1 to 200 do
    let rng = Rng.create seed in
    let inputs = [| 1; 2; 3 |] in
    let results, _ = run_converge ~policy:(Policy.random rng) ~k:2 inputs in
    let v, a, c = properties ~k:2 ~inputs results in
    checkb "validity" true v;
    checkb "c-agreement" true a;
    checkb "convergence (vacuous)" true c
  done

let test_commit_adopt_same_input () =
  let ca = create ~name:"ca" ~k:1 ~size:2 ~compare:Int.compare in
  let outs = Array.make 2 (0, false) in
  let body pid () = outs.(pid) <- run ca ~me:pid 5 in
  let _ =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:2)
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  Array.iter
    (fun (v, c) ->
      checki "picked 5" 5 v;
      checkb "committed" true c)
    outs

let test_commit_adopt_agreement_on_conflict () =
  (* Different inputs: if anyone commits v, everyone picks v. *)
  for seed = 1 to 100 do
    let rng = Rng.create (seed * 13) in
    let ca = create ~name:"ca2" ~k:1 ~size:3 ~compare:Int.compare in
    let outs = ref [] in
    let body pid () = outs := run ca ~me:pid (pid * 100) :: !outs in
    let _ =
      Run.exec
        ~pattern:(Failure_pattern.no_failures ~n_plus_1:3)
        ~policy:(Policy.random rng)
        ~procs:(fun pid -> [ body pid ])
        ()
    in
    match List.filter (fun (_, c) -> c) !outs with
    | [] -> ()
    | (v, _) :: _ ->
        List.iter (fun (w, _) -> checki "all picks equal commit" v w) !outs
  done

let qcheck_cases =
  let open QCheck in
  let gen_case =
    (* (seed, n, k, input variety) *)
    quad small_nat small_nat small_nat small_nat
  in
  [
    Test.make ~count:150
      ~name:"k-converge: validity + c-agreement + convergence (random runs)"
      gen_case
      (fun (seed, n_raw, k_raw, variety_raw) ->
        let n = 2 + (n_raw mod 4) in
        let k = 1 + (k_raw mod n) in
        let variety = 1 + (variety_raw mod n) in
        let rng = Rng.create ((seed * 31) + 1) in
        let inputs = Array.init n (fun i -> i mod variety) in
        let results, run_result =
          run_converge ~policy:(Policy.random rng) ~k inputs
        in
        let v, a, c = properties ~k ~inputs results in
        run_result.outcome = Scheduler.Quiescent
        && List.length results = n
        && v && a && c);
    Test.make ~count:100
      ~name:"k-converge with crashes: safety for survivors" gen_case
      (fun (seed, n_raw, k_raw, _) ->
        let n = 2 + (n_raw mod 4) in
        let k = 1 + (k_raw mod n) in
        let rng = Rng.create ((seed * 37) + 5) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1:n ~max_faulty:(n - 1)
            ~latest:50
        in
        let inputs = Array.init n (fun i -> i) in
        let results, run_result =
          run_converge ~pattern ~policy:(Policy.random rng) ~k inputs
        in
        let v, a, _ = properties ~k ~inputs results in
        run_result.outcome = Scheduler.Quiescent && v && a);
  ]

let suite =
  [
    Alcotest.test_case "convergence when inputs <= k" `Quick
      test_convergence_when_few_inputs;
    Alcotest.test_case "single input commits" `Quick
      test_single_input_always_commits;
    Alcotest.test_case "0-converge identity" `Quick test_zero_converge_is_identity;
    Alcotest.test_case "solo runner commits" `Quick test_solo_runner_commits;
    Alcotest.test_case "wait-freedom with crashes" `Quick
      test_wait_freedom_with_crashes;
    Alcotest.test_case "c-agreement (3 procs, distinct)" `Quick
      test_c_agreement_exhaustive_small;
    Alcotest.test_case "commit-adopt same input" `Quick test_commit_adopt_same_input;
    Alcotest.test_case "commit-adopt conflict" `Quick
      test_commit_adopt_agreement_on_conflict;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
