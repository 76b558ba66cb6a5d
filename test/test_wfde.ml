(* End-to-end tests: the experiment drivers (with small parameters), the
   harness, report rendering, and the booster-consensus extension. *)

open Kernel

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* -- report ------------------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec probe i = i + nn <= nh && (String.sub haystack i nn = needle || probe (i + 1)) in
  nn = 0 || probe 0

let test_report_alignment () =
  let t =
    {
      Wfde.Report.title = "demo";
      headers = [ "a"; "long-header"; "c" ];
      rows = [ [ "xxxxx"; "1"; "2" ]; [ "y"; "22"; "333" ] ];
    }
  in
  let s = Wfde.Report.to_string t in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | _title :: header :: rule :: _ ->
      checki "rule width matches header width" (String.length header)
        (String.length rule)
  | _ -> Alcotest.fail "too few lines");
  checkb "contains all cells" true
    (List.for_all (contains s) [ "xxxxx"; "long-header"; "333" ])

(* -- harness ------------------------------------------------------------- *)

let test_harness_world_determinism () =
  let w1 = Wfde.Harness.random_world ~seed:7 ~n_plus_1:4 ~max_faulty:2 () in
  let w2 = Wfde.Harness.random_world ~seed:7 ~n_plus_1:4 ~max_faulty:2 () in
  Alcotest.check Alcotest.string "same pattern"
    (Format.asprintf "%a" Failure_pattern.pp w1.Wfde.Harness.pattern)
    (Format.asprintf "%a" Failure_pattern.pp w2.Wfde.Harness.pattern)

let fig1 stab_time =
  Wfde.Harness.Fig1 { stab_time; escapes = Agreement.Upsilon_sa.all_escapes }

let test_harness_fig1_measures () =
  let w = Wfde.Harness.random_world ~seed:3 ~n_plus_1:3 ~max_faulty:2 () in
  let m = Wfde.Harness.run (Wfde.Harness.setup (fig1 None)) w in
  checkb "ok" true (Wfde.Harness.ok m);
  checkb "decision times ordered" true
    (m.Wfde.Harness.first_decision_time <= m.Wfde.Harness.last_decision_time);
  checkb "rounds positive" true (m.Wfde.Harness.rounds >= 1)

(* Observers only observe: E1, E2 and E8 worlds, each built as its
   experiment builds it, measure the same with and without an extra
   observer that keeps the trace. *)
let test_observers_do_not_change_runs () =
  let random seed ~n_plus_1 ~max_faulty () =
    Wfde.Harness.random_world ~seed ~n_plus_1 ~max_faulty ()
  in
  let lockstep () =
    {
      Wfde.Harness.pattern = Failure_pattern.no_failures ~n_plus_1:3;
      policy = Policy.round_robin ();
      world_rng = Rng.create 1;
    }
  in
  let fig2 f =
    Wfde.Harness.setup
      (Fig2 { f; snapshot = Memory.Snap.Registers; pinned = false })
  in
  let lockstep_for protocol =
    { (Wfde.Harness.setup protocol) with horizon = 10_000 }
  in
  List.iter
    (fun (name, setup, world) ->
      let plain = Wfde.Harness.run setup (world ()) in
      let kept = Trace.builder () in
      let observed =
        Wfde.Harness.run
          { setup with observers = [ Trace.record kept ] }
          (world ())
      in
      checkb (name ^ ": same measurements") true (plain = observed);
      checkb (name ^ ": the observer saw the run") true
        (Trace.finish kept <> []))
    [
      ("e1 n+1=3", Wfde.Harness.setup (fig1 None), random 3001 ~n_plus_1:3 ~max_faulty:2);
      ("e1 n+1=5", Wfde.Harness.setup (fig1 None), random 5007 ~n_plus_1:5 ~max_faulty:4);
      ("e2 n+1=4 f=2", fig2 2, random ((4 * 7919) + (2 * 131) + 3) ~n_plus_1:4 ~max_faulty:2);
      ("e2 n+1=5 f=3", fig2 3, random ((5 * 7919) + (3 * 131)) ~n_plus_1:5 ~max_faulty:3);
      ("e8 no detector", lockstep_for Async, lockstep);
      ("e8 upsilon", lockstep_for (fig1 (Some 0)), lockstep);
    ]

(* -- experiments (small parameters) ---------------------------------------- *)

let small_net =
  { Link.gst = 40; delta = 2; pre_delay = 10; loss_pct = 50; link_seed = 7 }

(* Small-parameter tables of the drivers that run their worlds through
   [Harness.run_agreement] directly or via [run_msg_consensus], pinned
   byte for byte in golden/small_tables.txt. *)
let test_small_tables_golden () =
  let module E = Wfde.Experiments in
  let tables =
    [
      E.e7_upsilon_vs_omega_n ~seeds:3 ~stab_times:[ 0; 200 ] ();
      E.e8_impossibility ~horizons:[ 10_000 ] ();
      E.e9_booster_consensus ~seeds:4 ~sizes:[ 2; 3 ] ();
      E.e11_msg_consensus ~seeds:1 ~sizes:[ 3 ] ();
      E.e11_msg_consensus ~seeds:1 ~sizes:[ 3 ]
        ~detectors:(Heartbeat small_net) ();
      E.a3_fig2_snapshot_cost ~seeds:2 ();
    ]
    |> List.map (fun (o : E.outcome) -> Wfde.Report.to_string o.table)
    |> String.concat "\n"
  in
  Alcotest.(check string)
    "golden/small_tables.txt"
    (In_channel.with_open_bin "golden/small_tables.txt" In_channel.input_all)
    tables

(* One detector value switches e5 and e11 to heartbeats: the table is
   the oracle table row for row, followed by exactly the gated rows. *)
let test_heartbeat_adds_gated_rows () =
  let module E = Wfde.Experiments in
  List.iter
    (fun (id, run, gated) ->
      let oracle : E.outcome = run Wfde.Harness.Oracle in
      let hb : E.outcome = run (Wfde.Harness.Heartbeat small_net) in
      let n = List.length oracle.table.rows in
      Alcotest.(check string) (id ^ ": same title") oracle.table.title
        hb.table.title;
      Alcotest.(check (list string)) (id ^ ": same headers")
        oracle.table.headers hb.table.headers;
      Alcotest.(check (list (list string))) (id ^ ": the oracle rows first")
        oracle.table.rows
        (List.filteri (fun i _ -> i < n) hb.table.rows);
      Alcotest.(check (list string)) (id ^ ": then exactly the gated rows")
        gated
        (List.filteri (fun i _ -> i >= n) hb.table.rows |> List.map List.hd);
      checkb (id ^ ": claim holds with heartbeats") true hb.ok)
    [
      ( "e5",
        (fun detectors -> E.e5_fig3_extraction ~seeds:2 ~detectors ()),
        [ "hb ev-perfect (implemented)" ] );
      ( "e11",
        (fun detectors ->
          E.e11_msg_consensus ~seeds:1 ~sizes:[ 3 ] ~detectors ()),
        [ "3 (hb Omega)" ] );
    ]

let test_experiments_hold_small () =
  let outcomes =
    [
      Wfde.Experiments.e1_fig1_set_agreement ~seeds:4 ~sizes:[ 2; 3 ] ();
      Wfde.Experiments.e2_fig2_f_resilient ~seeds:3 ~sizes:[ 3; 4 ] ();
      Wfde.Experiments.e3_theorem1_adversary ~max_phases:6 ();
      Wfde.Experiments.e4_theorem5_adversary ~max_phases:6 ();
      Wfde.Experiments.e5_fig3_extraction ~seeds:2 ();
      Wfde.Experiments.e6_pairwise_reductions ~seeds:4 ();
      Wfde.Experiments.e7_upsilon_vs_omega_n ~seeds:3 ~stab_times:[ 0; 200 ] ();
      Wfde.Experiments.e8_impossibility ~horizons:[ 10_000 ] ();
      Wfde.Experiments.e9_booster_consensus ~seeds:4 ~sizes:[ 2; 3 ] ();
      Wfde.Experiments.e10_abd_emulation ~seeds:2 ~sizes:[ 3; 5 ] ();
      Wfde.Experiments.e11_msg_consensus ~seeds:1 ~sizes:[ 3 ]
        ~detectors:(Heartbeat small_net) ();
      Wfde.Experiments.a1_snapshot_ablation ~sizes:[ 2; 4 ] ();
      Wfde.Experiments.a2_escape_ablation ~seeds:4 ();
      Wfde.Experiments.a3_fig2_snapshot_cost ~seeds:2 ();
    ]
  in
  List.iter
    (fun o ->
      if not o.Wfde.Experiments.ok then
        Alcotest.failf "experiment %s failed:@.%s" o.Wfde.Experiments.id
          (Wfde.Report.to_string o.Wfde.Experiments.table))
    outcomes

let test_experiment_lookup () =
  let ids =
    List.map
      (fun (e : Wfde.Experiments.entry) -> e.id)
      Wfde.Experiments.registry
  in
  Alcotest.(check (list string))
    "every experiment, in 'wfde list' order"
    [
      "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11";
      "a1"; "a2"; "a3"; "c1"; "d1"; "d2"; "d3";
    ]
    ids;
  checki "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      match Wfde.Experiments.find (String.uppercase_ascii id) with
      | Some e -> Alcotest.(check string) "case-insensitive lookup" id e.id
      | None -> Alcotest.failf "experiment %s not found" id)
    ids;
  checkb "unknown rejected" true (Wfde.Experiments.find "e99" = None)

(* The registry scales the driver's own default: e1's entry at scale 2
   must be exactly the driver at twice its default seed count. *)
let test_registry_scaling () =
  let e1 = Option.get (Wfde.Experiments.find "e1") in
  let scaled =
    e1.run
      { scale = 2; jobs = 1; spans = Obs.Span.null; detectors = Oracle;
        deadline = Fun.const false }
  in
  let direct = Wfde.Experiments.e1_fig1_set_agreement ~seeds:50 () in
  Alcotest.(check string)
    "e1 at scale 2 = e1 with 50 seeds"
    (Wfde.Report.to_string direct.table)
    (Wfde.Report.to_string scaled.table)

(* -- stats ------------------------------------------------------------------ *)

let test_stats_percentiles () =
  let xs = [ 10; 20; 30; 40; 50 ] in
  let pct q = Wfde.Stats.percentile_or ~default:Float.nan q xs in
  Alcotest.check (Alcotest.float 0.001) "median" 30.0 (pct 0.5);
  Alcotest.check (Alcotest.float 0.001) "min" 10.0 (pct 0.0);
  Alcotest.check (Alcotest.float 0.001) "max" 50.0 (pct 1.0);
  Alcotest.check (Alcotest.float 0.001) "interpolated p25" 20.0 (pct 0.25);
  Alcotest.check (Alcotest.float 0.001) "mean" 30.0 (Wfde.Stats.mean_int xs);
  (* totality on the empty family: no exceptions, explicit absences *)
  Alcotest.check (Alcotest.float 0.001) "empty mean" 0.0
    (Wfde.Stats.mean_int []);
  checkb "empty percentile" true (Wfde.Stats.percentile 0.95 [] = None);
  Alcotest.check (Alcotest.float 0.001) "empty percentile_or" 0.0
    (Wfde.Stats.percentile_or ~default:0.0 0.95 [])

(* -- booster consensus ------------------------------------------------------ *)

let run_booster ~seed ~n_plus_1 =
  let rng = Rng.create seed in
  let pattern =
    Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1) ~latest:200
  in
  let omega_n = Detectors.Omega_k.make ~rng ~pattern ~k:(n_plus_1 - 1) () in
  let proto =
    Agreement.Booster_consensus.create ~name:"boost" ~n_plus_1 ~omega_n
  in
  let _result =
    Run.exec ~pattern ~policy:(Policy.random rng) ~horizon:2_000_000
      ~procs:(fun pid ->
        [ Agreement.Booster_consensus.proposer proto ~me:pid ~input:(900 + pid) ])
      ()
  in
  let verdict =
    Agreement.Sa_spec.check ~k:1 ~pattern
      ~proposals:(List.map (fun p -> (p, 900 + p)) (Pid.all ~n_plus_1))
      ~decisions:(Agreement.Booster_consensus.decisions proto)
      ()
  in
  (verdict, proto, pattern)

let test_booster_solves_consensus () =
  for seed = 1 to 30 do
    let n_plus_1 = 2 + (seed mod 4) in
    let verdict, _, pattern = run_booster ~seed ~n_plus_1 in
    if not (Agreement.Sa_spec.all_ok verdict) then
      Alcotest.failf "seed %d (%a): %a" seed Failure_pattern.pp pattern
        Agreement.Sa_spec.pp verdict
  done

let test_booster_port_discipline () =
  (* No consensus object may ever see more than n distinct processes,
     even while Omega_n is still unstable. *)
  for seed = 1 to 30 do
    let n_plus_1 = 3 + (seed mod 3) in
    let _, proto, _ = run_booster ~seed:(seed + 500) ~n_plus_1 in
    checkb "ports within n" true
      (Agreement.Booster_consensus.max_ports_used proto <= n_plus_1 - 1)
  done

let test_booster_unique_decision () =
  for seed = 1 to 20 do
    let _, proto, _ = run_booster ~seed:(seed + 900) ~n_plus_1:4 in
    let decided =
      Agreement.Booster_consensus.decisions proto
      |> List.map snd |> List.sort_uniq Int.compare
    in
    checkb "exactly one value" true (List.length decided = 1)
  done

let suite =
  [
    Alcotest.test_case "report alignment" `Quick test_report_alignment;
    Alcotest.test_case "harness world determinism" `Quick
      test_harness_world_determinism;
    Alcotest.test_case "harness fig1 measures" `Quick test_harness_fig1_measures;
    Alcotest.test_case "observers do not change a run" `Quick
      test_observers_do_not_change_runs;
    Alcotest.test_case "all experiments hold (small)" `Slow
      test_experiments_hold_small;
    Alcotest.test_case "heartbeat detectors add only the gated rows" `Quick
      test_heartbeat_adds_gated_rows;
    Alcotest.test_case "small tables match golden" `Quick
      test_small_tables_golden;
    Alcotest.test_case "experiment lookup" `Quick test_experiment_lookup;
    Alcotest.test_case "registry scaling = driver default" `Quick
      test_registry_scaling;
    Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
    Alcotest.test_case "booster solves consensus" `Quick
      test_booster_solves_consensus;
    Alcotest.test_case "booster port discipline" `Quick
      test_booster_port_discipline;
    Alcotest.test_case "booster unique decision" `Quick
      test_booster_unique_decision;
  ]
