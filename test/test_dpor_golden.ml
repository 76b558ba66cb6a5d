(* Differential regression tests for the DPOR explorer: exploration
   stats pinned to goldens captured from the source-set + wakeup
   explorer on the wfde check configurations and the three planted
   mutants, verdict agreement with the naive enumerator on depth-<=8
   ABD scenarios, and QCheck equivalence of the indexed enabled-set
   against its association-list semantics. *)

open Kernel
open Check
module H = Wfde.Harness

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* -- golden stats ------------------------------------------------------ *)

(* (object, procs, depth, mutant, patterns_swept, executions,
   sleep_blocked, deduped, races, backtrack_points, scheduler steps,
   shrink replays, violation found, minor-words baseline) as measured
   on the source-set + wakeup-sequence explorer with schedule
   fingerprinting; the checker must reproduce every field exactly —
   these counters are part of the wfde check --json payload and any
   drift means the reduction explored a different tree. Steps and
   replays are [kernel.scheduler.steps] and [check.shrink.replays] in a
   freshly reset registry. The check may allocate at most 10% more
   minor words than the row's baseline, recorded on the race analysis
   over interned step ids (see EXPERIMENTS.md). For
   the sleep-set goldens these replaced (and the per-config drop), see
   the executions table in EXPERIMENTS.md: e.g. abd p3 d10 went
   562 -> 418 and the abd mutant 329 -> 281, with identical verdicts. *)
let golden =
  [
    ( Scenario.Register, 2, 6, None, 1, 34, 0, 0, 116, 33, 272, 0, false,
      49_696 );
    ( Scenario.Register, 3, 8, None, 1, 2788, 0, 464, 17292, 3687, 33456, 0,
      false, 4_929_873 );
    (Scenario.Snapshot, 2, 6, None, 1, 3, 0, 0, 4, 2, 44, 0, false, 8_150);
    ( Scenario.Snapshot, 3, 12, None, 1, 21, 0, 3, 84, 27, 654, 0, false,
      60_521 );
    ( Scenario.Abd, 3, 8, None, 25, 224, 0, 0, 4074, 204, 27110, 0, false,
      1_957_269 );
    ( Scenario.Abd, 3, 10, None, 25, 418, 0, 0, 7621, 436, 50541, 0, false,
      3_527_799 );
    ( Scenario.Abd, 3, 12, None, 25, 675, 0, 0, 12282, 759, 81922, 0, false,
      5_638_840 );
    ( Scenario.Commit_adopt, 2, 6, None, 1, 3, 0, 0, 13, 1, 122, 0, false,
      11_097 );
    ( Scenario.Commit_adopt, 3, 8, None, 1, 6, 0, 1, 82, 3, 510, 0, false,
      31_618 );
    ( Scenario.Abd, 3, 10, Some Mutant.Abd_skip_write_back, 20, 281, 0, 0,
      2657, 304, 18419, 10, true, 1_644_736 );
    ( Scenario.Snapshot, 3, 12, Some Mutant.Snapshot_single_collect, 1, 12, 0,
      4, 30, 12, 2176, 124, true, 236_696 );
    ( Scenario.Commit_adopt, 2, 6, Some Mutant.Converge_drop_phase2, 1, 1, 0,
      0, 0, 0, 544, 25, true, 35_473 );
    (* the benchmark's link-chaos unit: 400-step runs over one chaotic
       link, where race analysis dominates the check *)
    ( Scenario.Link_chaos Scenario.default_chaos, 3, 10, None, 3, 3173, 0, 0,
      974268, 5057, 1269200, 0, false, 85_939_595 );
    ( Scenario.Hb_detector Scenario.default_chaos, 2, 5,
      Some Mutant.Hb_timeout_never_increased, 1, 1, 0, 0, 0, 0, 3200, 7, true,
      229_416 );
  ]

let test_golden_stats () =
  List.iter
    (fun ( obj,
           procs,
           depth,
           mutant,
           patterns,
           execs,
           sleep,
           deduped,
           races,
           bt,
           steps,
           replays,
           violated,
           minor_words ) ->
      let label fmt =
        Printf.sprintf "%s p%d d%d%s %s" (Scenario.to_string obj) procs depth
          (match mutant with
          | Some m -> " mutant:" ^ Mutant.to_string m
          | None -> "")
          fmt
      in
      let c, snap, words =
        Testutil.measured (fun () ->
            H.check_exhaustive ~jobs:1 ~procs ~depth ?mutant obj)
      in
      checki (label "patterns_swept") patterns c.H.patterns_swept;
      checki (label "executions") execs c.H.executions;
      checki (label "sleep_blocked") sleep c.H.sleep_blocked;
      checki (label "deduped") deduped c.H.deduped;
      checki (label "races") races c.H.races;
      checki (label "backtrack_points") bt c.H.backtrack_points;
      checki (label "scheduler steps") steps
        (Testutil.counter snap "kernel.scheduler.steps");
      checki (label "shrink replays") replays
        (Testutil.counter snap "check.shrink.replays");
      checkb (label "violation") violated (c.H.violation <> None);
      Testutil.check_minor_words (label "") ~baseline:minor_words words)
    golden

(* -- DPOR vs the naive enumerator -------------------------------------- *)

let test_abd_matches_naive () =
  (* Same verdict on the ABD scenario at every depth the naive
     enumerator can still afford, failure-free and under the scenario's
     first crash pattern; the reduction must also do strictly less
     work. *)
  let patterns = Scenario.patterns Scenario.Abd ~procs:3 in
  let crashy = List.nth patterns 1 in
  List.iter
    (fun (pattern, pat_name, depths) ->
      List.iter
        (fun depth ->
          let make = Scenario.make Scenario.Abd ~procs:3 in
          let dpor = Dpor.explore ~pattern ~depth ~horizon:400 ~make () in
          let naive = Explore.naive_prefix ~pattern ~depth ~horizon:400 ~make () in
          checkb
            (Printf.sprintf "abd %s d%d: same verdict" pat_name depth)
            (naive.Explore.counterexample = None)
            (dpor.Dpor.counterexample = None);
          checkb
            (Printf.sprintf "abd %s d%d: dpor fewer executions (%d < %d)"
               pat_name depth dpor.Dpor.stats.Dpor.executions naive.Explore.executions)
            true
            (dpor.Dpor.stats.Dpor.executions < naive.Explore.executions))
        depths)
    [
      (List.hd patterns, "failure-free", [ 4; 6; 8 ]);
      (crashy, "crash-pattern", [ 4; 6 ]);
    ]

let test_mutant_matches_naive () =
  (* The one planted bug cheap enough for unreduced enumeration: both
     explorers must catch converge-drop-phase2, with the identical
     checker report. *)
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let make =
    Scenario.make ~mutant:Mutant.Converge_drop_phase2 Scenario.Commit_adopt
      ~procs:2
  in
  let dpor = Dpor.explore ~pattern ~depth:6 ~horizon:400 ~make () in
  let naive = Explore.naive_prefix ~pattern ~depth:6 ~horizon:400 ~make () in
  match (dpor.Dpor.counterexample, naive.Explore.counterexample) with
  | Some (_, r1), Some (_, r2) ->
      Alcotest.check Alcotest.string "same checker report" r2 r1
  | None, _ -> Alcotest.fail "dpor missed the planted mutant"
  | _, None -> Alcotest.fail "naive enumerator missed the planted mutant"

(* -- objects are identified by name -------------------------------------- *)

(* Two processes race on object "x": pid 0 writes it twice, pid 1 reads
   it twice through one shared label. In the first world every write
   builds a fresh label around a freshly allocated name, so no two
   labels of "x" are physically equal; the explorer must still see one
   object, find the race, and do exactly the work of the world that
   shares one write label throughout. *)
let test_objects_by_name () =
  let shared_write = Sim.Write { obj = "x" } in
  let shared_read = Sim.Read { obj = "x" } in
  let make ~fresh () =
    let x = ref 0 in
    let write v =
      let kind =
        if fresh then Sim.Write { obj = String.make 1 'x' } else shared_write
      in
      Sim.atomic kind (fun _ -> x := v)
    in
    let read () = ignore (Sim.atomic shared_read (fun _ -> !x)) in
    let body pid () =
      if Pid.to_int pid = 0 then begin
        write 1;
        write 2
      end
      else begin
        read ();
        read ()
      end
    in
    ((fun pid -> [ body pid ]), fun _ -> Ok ())
  in
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let explore ~fresh =
    (Dpor.explore ~pattern ~depth:4 ~horizon:50 ~make:(make ~fresh) ())
      .Dpor.stats
  in
  let fresh = explore ~fresh:true and shared = explore ~fresh:false in
  checkb "the race on x is found" true (fresh.Dpor.races > 0);
  checkb "fresh labels explore like one shared label" true (fresh = shared)

(* -- budget truncation --------------------------------------------------- *)

(* A truncated exploration reports exactly [budget] executions and no
   counterexample, at every budget short of the full search — it is
   not a verification of the rest — and a budget covering the whole
   search changes nothing. *)
let test_budget_every_prefix () =
  let pattern = List.hd (Scenario.patterns Scenario.Abd ~procs:3) in
  let make = Scenario.make Scenario.Abd ~procs:3 in
  let explore ?budget () =
    Dpor.explore ~pattern ~depth:8 ~horizon:400 ?budget ~make ()
  in
  let full = explore () in
  checkb "uninterrupted: no violation" true (full.Dpor.counterexample = None);
  let total = full.Dpor.stats.Dpor.executions in
  checkb "abd pattern0 explores several runs" true (total > 1);
  for k = 1 to total - 1 do
    let sliced = explore ~budget:k () in
    checki
      (Printf.sprintf "prefix %d: stops on budget" k)
      k sliced.Dpor.stats.Dpor.executions;
    checkb
      (Printf.sprintf "prefix %d: no counterexample" k)
      true
      (sliced.Dpor.counterexample = None)
  done;
  checkb "budget = total matches the unbounded run" true
    ((explore ~budget:total ()).Dpor.stats = full.Dpor.stats);
  let branches = Dpor.root_branches ~pattern ~make () in
  checkb "abd has shardable branches" true (List.length branches > 1);
  List.iteri
    (fun index _ ->
      let explore_b ?budget () =
        Dpor.explore_branch ~pattern ~depth:8 ~horizon:400 ?budget ~branches
          ~index ~make ()
      in
      let total = (explore_b ()).Dpor.stats.Dpor.executions in
      if total > 1 then begin
        let k = max 1 (total / 2) in
        checki
          (Printf.sprintf "branch %d: stops on budget %d" index k)
          k (explore_b ~budget:k ()).Dpor.stats.Dpor.executions
      end)
    branches

let test_budget_before_violation () =
  (* one execution short of the violating run finds nothing; the budget
     that reaches it finds the same counterexample as the unbounded run *)
  let pattern = List.hd (Scenario.patterns Scenario.Snapshot ~procs:3) in
  let make =
    Scenario.make ~mutant:Mutant.Snapshot_single_collect Scenario.Snapshot
      ~procs:3
  in
  let explore ?budget () =
    Dpor.explore ~pattern ~depth:12 ~horizon:400 ?budget ~make ()
  in
  let full = explore () in
  checkb "planted mutant caught uninterrupted" true
    (full.Dpor.counterexample <> None);
  let k = full.Dpor.stats.Dpor.executions - 1 in
  checkb "violation is not the first execution" true (k >= 1);
  let short = explore ~budget:k () in
  checki "truncated before the violation" k
    short.Dpor.stats.Dpor.executions;
  checkb "no counterexample before the violating run" true
    (short.Dpor.counterexample = None);
  let reached = explore ~budget:(k + 1) () in
  checkb "same counterexample once the budget reaches it" true
    (reached.Dpor.counterexample = full.Dpor.counterexample)

(* -- Eset vs association list (QCheck) --------------------------------- *)

let kind_pool =
  [|
    Sim.Read { obj = "x" };
    Sim.Read { obj = "y" };
    Sim.Write { obj = "x" };
    Sim.Query { detector = "upsilon" };
    Sim.Output { label = "decide"; value = "1" };
    Sim.Input { label = "in"; value = "0" };
    Sim.Nop;
  |]

(* An enabled set as its association-list model: a strictly increasing
   pid subset of 0..11, each with an arbitrary pending kind. *)
let entries_gen =
  QCheck.Gen.(
    list_size (int_bound 12)
      (pair (int_bound 11) (int_bound (Array.length kind_pool - 1)))
    >|= fun raw ->
    let module IS = Set.Make (Int) in
    let _, entries =
      List.fold_left
        (fun (seen, acc) (p, k) ->
          if IS.mem p seen then (seen, acc)
          else (IS.add p seen, (p, kind_pool.(k)) :: acc))
        (IS.empty, []) raw
    in
    List.sort (fun (a, _) (b, _) -> Int.compare a b) entries)

let qcheck_eset_equivalence =
  QCheck.Test.make ~count:500 ~name:"Eset matches association-list semantics"
    (QCheck.make entries_gen)
    (fun entries ->
      let es = Eset.of_list entries in
      (* every pid in range, present or not, looks up identically *)
      List.for_all
        (fun p ->
          Eset.find es p = List.assoc_opt p entries
          && Eset.mem es p = List.mem_assoc p entries)
        (List.init 13 Fun.id)
      && Eset.to_list es = entries
      && Eset.size es = List.length entries
      && Eset.to_list (Eset.copy es) = entries
      &&
      (* iteration visits the entries in pid order *)
      let seen = ref [] in
      Eset.iter es (fun p k -> seen := (p, k) :: !seen);
      List.rev !seen = entries)

let qcheck_eset_incremental =
  QCheck.Test.make ~count:200 ~name:"Eset push/clear reuse stays equivalent"
    (QCheck.make QCheck.Gen.(pair entries_gen entries_gen))
    (fun (first, second) ->
      (* one buffer refreshed across two generations, as the per-node
         refresh on the DPOR hot path does *)
      let es = Eset.create ~capacity:2 () in
      List.iter (fun (p, k) -> Eset.push es p k) first;
      Eset.clear es;
      List.iter (fun (p, k) -> Eset.push es p k) second;
      Eset.to_list es = second
      && List.for_all
           (fun p -> Eset.find es p = List.assoc_opt p second)
           (List.init 13 Fun.id))

let suite =
  [
    Alcotest.test_case "stats match committed goldens" `Slow
      test_golden_stats;
    Alcotest.test_case "abd verdicts match naive enumerator" `Slow
      test_abd_matches_naive;
    Alcotest.test_case "planted mutant caught by both explorers" `Quick
      test_mutant_matches_naive;
    Alcotest.test_case "objects are identified by name" `Quick
      test_objects_by_name;
    Alcotest.test_case "budget truncation stops at every prefix" `Slow
      test_budget_every_prefix;
    Alcotest.test_case "budget short of the violation finds nothing" `Quick
      test_budget_before_violation;
    QCheck_alcotest.to_alcotest qcheck_eset_equivalence;
    QCheck_alcotest.to_alcotest qcheck_eset_incremental;
  ]
