(* DPOR exploration ({!Dpor.explore}) of small worlds: verify safety
   properties over ALL schedule classes of the critical early steps for
   small systems, demonstrate the explorer still finds a planted bug,
   and check the reduction against the naive enumerator — same verdict,
   strictly fewer executions. *)

open Kernel
open Check

let checkb = Alcotest.check Alcotest.bool

(* Build a fresh commit-adopt world with distinct inputs; the checker
   asserts the commit-adopt contract on the collected results. *)
let commit_adopt_world n () =
  let inst =
    Converge.create ~name:"x" ~k:1 ~size:n ~compare:Int.compare
  in
  let results = ref [] in
  let body pid () =
    let picked, committed = Converge.run inst ~me:pid (pid * 7) in
    results := (pid, picked, committed) :: !results
  in
  let procs pid = [ body pid ] in
  let check _trace =
    let picked =
      List.sort_uniq Int.compare (List.map (fun (_, v, _) -> v) !results)
    in
    let committed = List.exists (fun (_, _, c) -> c) !results in
    if List.length !results <> n then Error "not everyone finished"
    else if committed && List.length picked > 1 then
      Error
        (Printf.sprintf "commit with %d distinct picks" (List.length picked))
    else if
      not (List.for_all (fun v -> List.exists (fun p -> p * 7 = v) [ 0; 1; 2; 3 ]) picked)
    then Error "validity violated"
    else Ok ()
  in
  (procs, check)

(* The classic lost update: both processes read a register, then write
   their increment; some interleaving loses one of them. *)
let lost_update_world () =
  let open Memory in
  let reg = Register.create ~name:"c" 0 in
  let body _pid () =
    let v = Register.read reg in
    Register.write reg (v + 1)
  in
  let check _trace =
    if Register.peek reg = 2 then Ok () else Error "lost update"
  in
  ((fun pid -> [ body pid ]), check)

let test_commit_adopt_exhaustive_2proc () =
  let outcome =
    Dpor.explore
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:2)
      ~depth:11 ~horizon:10_000
      ~make:(commit_adopt_world 2)
      ()
  in
  checkb "explored more than one class" true (outcome.stats.executions > 1);
  match outcome.counterexample with
  | None -> ()
  | Some (prefix, msg) ->
      Alcotest.failf "counterexample %s under schedule [%s]" msg
        (String.concat ";" (List.map Pid.to_string prefix))

let test_commit_adopt_exhaustive_3proc () =
  let outcome =
    Dpor.explore
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:3)
      ~depth:7 ~horizon:10_000
      ~make:(commit_adopt_world 3)
      ()
  in
  checkb "explored more than one class" true (outcome.stats.executions > 1);
  checkb "no counterexample" true (outcome.counterexample = None)

let test_converge_exhaustive_c_agreement () =
  (* k = 1 converge with 3 distinct inputs: whenever anyone commits, all
     picks agree — over every class of the 3^6 early interleavings. *)
  let make () =
    let inst = Converge.create ~name:"x" ~k:1 ~size:3 ~compare:Int.compare in
    let results = ref [] in
    let body pid () =
      let picked, committed = Converge.run inst ~me:pid (100 + pid) in
      results := (picked, committed) :: !results
    in
    let check _trace =
      let committed = List.exists snd !results in
      let picked = List.sort_uniq Int.compare (List.map fst !results) in
      if committed && List.length picked > 1 then Error "c-agreement broken"
      else Ok ()
    in
    ((fun pid -> [ body pid ]), check)
  in
  let outcome =
    Dpor.explore
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:3)
      ~depth:6 ~horizon:10_000 ~make ()
  in
  checkb "no counterexample" true (outcome.counterexample = None)

let test_explorer_finds_planted_race () =
  let outcome =
    Dpor.explore
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:2)
      ~depth:4 ~horizon:100 ~make:lost_update_world ()
  in
  match outcome.counterexample with
  | Some (_, "lost update") -> ()
  | Some (_, other) -> Alcotest.failf "unexpected report %s" other
  | None -> Alcotest.fail "explorer missed the planted race"

(* DPOR vs the naive enumerator on 2-process depth-5 worlds: identical
   verdict; on violation-free worlds strictly fewer executions. *)
let equivalence_cases =
  [
    ("commit-adopt", commit_adopt_world 2, false);
    ("lost update", lost_update_world, true);
    ( "independent registers",
      (fun () ->
        let open Memory in
        let a = Register.create ~name:"a" 0 and b = Register.create ~name:"b" 0 in
        let body pid () =
          let reg = if pid = 0 then a else b in
          Register.write reg 1;
          ignore (Register.read reg);
          Register.write reg 2
        in
        let check _trace =
          if Register.peek a = 2 && Register.peek b = 2 then Ok ()
          else Error "final values wrong"
        in
        ((fun pid -> [ body pid ]), check)),
      false );
    ( "shared register",
      (fun () ->
        let open Memory in
        let r = Register.create ~name:"r" 0 in
        let body pid () =
          Register.write r (10 + pid);
          ignore (Register.read r)
        in
        let check _trace =
          let v = Register.peek r in
          if v = 10 || v = 11 then Ok () else Error "impossible final value"
        in
        ((fun pid -> [ body pid ]), check)),
      false );
  ]

let test_dpor_matches_naive () =
  List.iter
    (fun (name, make, violates) ->
      let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
      let dpor =
        Dpor.explore ~pattern ~depth:5 ~horizon:200 ~make ()
      in
      let naive =
        Explore.naive_prefix ~pattern ~depth:5 ~horizon:200 ~make ()
      in
      checkb
        (Printf.sprintf "%s: same verdict" name)
        (naive.counterexample <> None)
        (dpor.counterexample <> None);
      checkb
        (Printf.sprintf "%s: expected verdict" name)
        violates
        (dpor.counterexample <> None);
      if not violates then
        checkb
          (Printf.sprintf "%s: dpor strictly fewer executions (%d < %d)" name
             dpor.stats.executions naive.executions)
          true
          (dpor.stats.executions < naive.executions))
    equivalence_cases

let test_schedule_count_bound () =
  let checki = Alcotest.check Alcotest.int in
  checki "3^4" 81 (Explore.count_schedules ~n_plus_1:3 ~depth:4);
  checki "k^0" 1 (Explore.count_schedules ~n_plus_1:7 ~depth:0);
  checki "1^k" 1 (Explore.count_schedules ~n_plus_1:1 ~depth:500);
  (* saturation instead of the old silent overflow *)
  checki "2^61 fits" (1 lsl 61) (Explore.count_schedules ~n_plus_1:2 ~depth:61);
  checki "2^62 saturates" max_int (Explore.count_schedules ~n_plus_1:2 ~depth:62);
  checki "2^200 saturates" max_int
    (Explore.count_schedules ~n_plus_1:2 ~depth:200);
  checki "10^100 saturates" max_int
    (Explore.count_schedules ~n_plus_1:10 ~depth:100);
  Alcotest.check_raises "negative depth rejected"
    (Invalid_argument "Explore.count_schedules: negative argument") (fun () ->
      ignore (Explore.count_schedules ~n_plus_1:2 ~depth:(-1)))

let suite =
  [
    Alcotest.test_case "commit-adopt exhaustive (2 procs, depth 11)" `Slow
      test_commit_adopt_exhaustive_2proc;
    Alcotest.test_case "commit-adopt exhaustive (3 procs, depth 7)" `Slow
      test_commit_adopt_exhaustive_3proc;
    Alcotest.test_case "1-converge exhaustive c-agreement" `Slow
      test_converge_exhaustive_c_agreement;
    Alcotest.test_case "explorer finds planted race" `Quick
      test_explorer_finds_planted_race;
    Alcotest.test_case "dpor matches naive enumeration" `Quick
      test_dpor_matches_naive;
    Alcotest.test_case "schedule count bound" `Quick test_schedule_count_bound;
  ]
