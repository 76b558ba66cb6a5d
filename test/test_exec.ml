(* Tests for the domain-parallel sweep runner: order/identity of the
   deterministic merge, map_until prefix semantics, exception
   propagation, metrics determinism across [jobs], and the -j1 vs -j4
   determinism regression over a real experiment and a real
   model-checking sweep. *)

module M = Obs.Metrics
module Pool = Exec.Pool

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let ilist = Alcotest.(list int)

(* -- merge identity ---------------------------------------------------- *)

let test_map_order () =
  let serial = Pool.map (Pool.create ()) ~f:(fun i -> i * i) 17 in
  checki "serial length" 17 (List.length serial);
  List.iter
    (fun jobs ->
      let par = Pool.map (Pool.create ~jobs ()) ~f:(fun i -> i * i) 17 in
      Alcotest.check ilist
        (Printf.sprintf "jobs=%d merges in unit order" jobs)
        serial par)
    [ 2; 3; 4; 8 ];
  Alcotest.check ilist "empty input" []
    (Pool.map (Pool.create ~jobs:4 ()) ~f:(fun i -> i) 0)

let test_map_list () =
  let xs = [ "a"; "bb"; "ccc"; "dddd"; "eeeee" ] in
  Alcotest.check ilist "map_list keeps element order"
    (List.map String.length xs)
    (Pool.map_list (Pool.create ~jobs:3 ()) ~f:String.length xs)

let test_jobs_clamped () =
  checki "0 clamps to 1" 1 (Pool.jobs (Pool.create ~jobs:0 ()));
  checki "negative clamps to 1" 1 (Pool.jobs (Pool.create ~jobs:(-7) ()));
  checki "huge clamps to 64" 64 (Pool.jobs (Pool.create ~jobs:1000 ()))

(* -- map_until prefix semantics ---------------------------------------- *)

let test_map_until_prefix () =
  (* The first stopping unit is index 5: every jobs must return exactly
     the serial prefix [0..5], whatever got computed speculatively. *)
  List.iter
    (fun jobs ->
      let got =
        Pool.map_until
          (Pool.create ~jobs ())
          ~stop:(fun r -> r >= 50)
          ~f:(fun i -> i * 10)
          20
      in
      Alcotest.check ilist
        (Printf.sprintf "jobs=%d stops at first hit" jobs)
        [ 0; 10; 20; 30; 40; 50 ]
        got)
    [ 1; 2; 4; 8 ];
  List.iter
    (fun jobs ->
      let got =
        Pool.map_until
          (Pool.create ~jobs ())
          ~stop:(fun _ -> false)
          ~f:(fun i -> i)
          7
      in
      Alcotest.check ilist
        (Printf.sprintf "jobs=%d no hit returns everything" jobs)
        [ 0; 1; 2; 3; 4; 5; 6 ] got)
    [ 1; 4 ]

exception Unit_failed of int

let test_exception_lowest_index () =
  (* Several units raise; the caller must see the lowest-index failure,
     as a serial left-to-right run would. *)
  List.iter
    (fun jobs ->
      let raised =
        try
          ignore
            (Pool.map
               (Pool.create ~jobs ())
               ~f:(fun i -> if i >= 3 then raise (Unit_failed i) else i)
               12);
          None
        with Unit_failed i -> Some i
      in
      checkb
        (Printf.sprintf "jobs=%d re-raises lowest failing unit" jobs)
        true
        (raised = Some 3))
    [ 1; 2; 4 ]

(* Sum of one per-worker counter over workers [0, jobs). *)
let worker_total s ~jobs name =
  List.fold_left
    (fun acc w ->
      acc
      + Option.value ~default:0
          (M.find_counter s
             (Printf.sprintf "exec.pool.worker.%s{worker=%d}" name w)))
    0 (List.init jobs Fun.id)

let test_slow_units_spread () =
  (* Every slow unit sits at an index [i mod jobs = 0], the stripe a
     static split would hand to worker 0 alone. Each unit records
     exactly one execution, results stay the serial merge, and the
     per-worker claims account for every unit. *)
  M.reset ();
  let n = 16 and jobs = 4 in
  let ran = Array.init n (fun _ -> Atomic.make 0) in
  let out =
    Pool.map
      (Pool.create ~jobs ())
      ~f:(fun i ->
        Atomic.incr ran.(i);
        if i mod jobs = 0 then Unix.sleepf 0.08;
        i * 3)
      n
  in
  Alcotest.check ilist "merge is the serial result"
    (List.init n (fun i -> i * 3))
    out;
  Array.iteri
    (fun i a ->
      checki (Printf.sprintf "unit %d executed exactly once" i) 1
        (Atomic.get a))
    ran;
  checki "all units claimed" n (worker_total (M.snapshot ()) ~jobs "units")

(* -- metrics determinism ----------------------------------------------- *)

let strip_exec (s : M.snapshot) =
  let keep (name, _) =
    not (String.length name >= 5 && String.sub name 0 5 = "exec.")
  in
  {
    M.counters = List.filter keep s.M.counters;
    gauges = List.filter keep s.M.gauges;
    histograms = List.filter keep s.M.histograms;
  }

let run_metric_units ~jobs =
  M.reset ();
  ignore
    (Pool.map
       (Pool.create ~jobs ())
       ~f:(fun i ->
         M.incr ~by:(i + 1) (M.counter "test.exec.work");
         M.observe_int (M.histogram "test.exec.latency") (1 + (i mod 7));
         M.set (M.gauge "test.exec.last_seed") (float_of_int i);
         i)
       16);
  strip_exec (M.snapshot ())

let test_metrics_deterministic () =
  let s1 = run_metric_units ~jobs:1 in
  List.iter
    (fun jobs ->
      let sn = run_metric_units ~jobs in
      checkb
        (Printf.sprintf "jobs=%d snapshot equals serial (exec.* stripped)"
           jobs)
        true (sn = s1))
    [ 2; 4 ];
  (* the absorbed totals are the serial totals *)
  checkb "counter total" true
    (M.find_counter s1 "test.exec.work" = Some (16 * 17 / 2));
  checkb "gauge is last unit's (unit order, not completion order)" true
    (M.find_gauge s1 "test.exec.last_seed" = Some 15.0);
  match M.find_histogram s1 "test.exec.latency" with
  | None -> Alcotest.fail "histogram missing"
  | Some v -> checki "all events absorbed" 16 v.M.events

let test_worker_telemetry () =
  M.reset ();
  ignore (Pool.map (Pool.create ~jobs:4 ()) ~f:(fun i -> i) 12);
  let s = M.snapshot () in
  checkb "pool run counted" true (M.find_counter s "exec.pool.runs" = Some 1);
  checkb "unit count recorded" true
    (M.find_counter s "exec.pool.units" = Some 12);
  checki "per-worker claims sum to unit count" 12
    (worker_total s ~jobs:4 "units");
  checkb "per-worker wall recorded" true
    (List.for_all
       (fun w ->
         M.find_counter s
           (Printf.sprintf "exec.pool.worker.wall_us{worker=%d}" w)
         <> None)
       [ 0; 1; 2; 3 ])

let test_worker_telemetry_accumulates () =
  (* A 2-unit call after a 16-unit call uses only two of the four
     workers; the per-worker numbers must still cover both calls. *)
  M.reset ();
  let pool = Pool.create ~jobs:4 () in
  ignore (Pool.map pool ~f:(fun i -> i) 16);
  ignore (Pool.map pool ~f:(fun i -> i) 2);
  let s = M.snapshot () in
  checkb "both calls' units counted" true
    (M.find_counter s "exec.pool.units" = Some 18);
  checki "per-worker claims sum to exec.pool.units over both calls" 18
    (worker_total s ~jobs:4 "units")

(* -- determinism regression: a real experiment ------------------------- *)

let render outcome = Format.asprintf "%a" Wfde.Experiments.pp outcome

let test_e1_table_identical () =
  M.reset ();
  let t1 = render (Wfde.Experiments.e1_fig1_set_agreement ~jobs:1 ~seeds:6 ~sizes:[ 2; 3 ] ()) in
  let s1 = strip_exec (M.snapshot ()) in
  M.reset ();
  let t4 = render (Wfde.Experiments.e1_fig1_set_agreement ~jobs:4 ~seeds:6 ~sizes:[ 2; 3 ] ()) in
  let s4 = strip_exec (M.snapshot ()) in
  checks "E1 table byte-identical at -j1 / -j4" t1 t4;
  checkb "E1 metrics snapshot identical (exec.* stripped)" true (s1 = s4)

(* Every driver at the small parameters of test_wfde's "experiments hold
   (small)" (c1 and d3 at a small depth): each experiment shards its
   units over one pool, so its table must not depend on [jobs]. *)
let small_drivers =
  let module E = Wfde.Experiments in
  let small_net =
    { Kernel.Link.gst = 40; delta = 2; pre_delay = 10; loss_pct = 50; link_seed = 7 }
  in
  [
    (fun jobs -> E.e1_fig1_set_agreement ~jobs ~seeds:4 ~sizes:[ 2; 3 ] ());
    (fun jobs -> E.e2_fig2_f_resilient ~jobs ~seeds:3 ~sizes:[ 3; 4 ] ());
    (fun jobs -> E.e3_theorem1_adversary ~jobs ~max_phases:6 ());
    (fun jobs -> E.e4_theorem5_adversary ~jobs ~max_phases:6 ());
    (fun jobs -> E.e5_fig3_extraction ~jobs ~seeds:2 ());
    (fun jobs -> E.e6_pairwise_reductions ~jobs ~seeds:4 ());
    (fun jobs -> E.e7_upsilon_vs_omega_n ~jobs ~seeds:3 ~stab_times:[ 0; 200 ] ());
    (fun jobs -> E.e8_impossibility ~jobs ~horizons:[ 10_000 ] ());
    (fun jobs -> E.e9_booster_consensus ~jobs ~seeds:4 ~sizes:[ 2; 3 ] ());
    (fun jobs -> E.e10_abd_emulation ~jobs ~seeds:2 ~sizes:[ 3; 5 ] ());
    (fun jobs ->
      E.e11_msg_consensus ~jobs ~seeds:1 ~sizes:[ 3 ]
        ~detectors:(Wfde.Harness.Heartbeat small_net) ());
    (fun jobs -> E.a1_snapshot_ablation ~jobs ~sizes:[ 2; 4 ] ());
    (fun jobs -> E.a2_escape_ablation ~jobs ~seeds:4 ());
    (fun jobs -> E.a3_fig2_snapshot_cost ~jobs ~seeds:2 ());
    (fun jobs -> E.c1_model_checking ~jobs ~depth:4 ~mutant_depth:10 ());
    (fun jobs -> E.d1_hb_conformance ~jobs ~seeds:1 ());
    (fun jobs -> E.d2_hb_vs_oracle ~jobs ~seeds:1 ());
    (fun jobs -> E.d3_hb_model_checking ~jobs ~depth:3 ());
  ]

let test_every_table_identical () =
  checki "one driver per registry entry"
    (List.length Wfde.Experiments.registry)
    (List.length small_drivers);
  List.iter
    (fun driver ->
      let (o1 : Wfde.Experiments.outcome) = driver 1 in
      checks
        (o1.id ^ " table byte-identical at -j1 / -j3")
        (render o1) (render (driver 3)))
    small_drivers

(* -- determinism regression: a real model-checking sweep --------------- *)

let test_check_identical () =
  M.reset ();
  let c1 = Wfde.Harness.check_exhaustive ~jobs:1 ~procs:3 ~depth:8 Wfde.Scenario.Abd in
  let s1 = strip_exec (M.snapshot ()) in
  M.reset ();
  let c4 = Wfde.Harness.check_exhaustive ~jobs:4 ~procs:3 ~depth:8 Wfde.Scenario.Abd in
  let s4 = strip_exec (M.snapshot ()) in
  checkb "check outcome structurally identical" true (c1 = c4);
  checks "check --json payload byte-identical"
    (Obs.Json.to_string (Wfde.Harness.check_outcome_json c1))
    (Obs.Json.to_string (Wfde.Harness.check_outcome_json c4));
  checkb "check metrics snapshot identical (exec.* stripped)" true (s1 = s4);
  checkb "sweep actually explored" true (c1.Wfde.Harness.executions > 0)

let test_check_json_repeatable () =
  (* Two runs of the same configuration in the same process: the
     optimized checker's buffer reuse (Eset refresh, vector-clock pool,
     trace chunks, per-domain metric slots) must leave no state behind that
     could change the payload of a later run. *)
  let payload jobs =
    M.reset ();
    Obs.Json.to_string
      (Wfde.Harness.check_outcome_json
         (Wfde.Harness.check_exhaustive ~jobs ~procs:3 ~depth:8
            Wfde.Scenario.Abd))
  in
  checks "check --json identical across two same-config runs" (payload 1)
    (payload 1);
  checks "second run at -j4 still matches" (payload 1) (payload 4);
  (* 8 workers oversubscribe the cores, so units finish far out of
     index order — the merge must still come out byte-identical. *)
  checks "oversubscribed -j8 still matches" (payload 1) (payload 8)

(* The deterministic part of the wfde sweep --json document: the
   shared runner's rows rendered by the CLI's renderer, with the
   wall-clock fields — the only sanctioned nondeterminism — and the
   worker count normalized away. *)
let sweep_json_normalized ~jobs ids =
  let config =
    { Wfde.Experiments.scale = 1; jobs; spans = Obs.Span.null;
      detectors = Wfde.Harness.Oracle; deadline = Fun.const false }
  in
  match Serve.Service.run_experiments config ids with
  | Error _ -> Alcotest.fail "sweep runner failed"
  | Ok timed ->
      Obs.Json.to_string
        (Serve.Service.sweep_json ~jobs:1 ~scale:1
           (List.map (fun (id, o, _) -> (id, o, 0.0)) timed))

let test_sweep_json_identical () =
  let ids = [ "e1"; "e2"; "e6" ] in
  let j1 = sweep_json_normalized ~jobs:1 ids in
  let j1' = sweep_json_normalized ~jobs:1 ids in
  let j4 = sweep_json_normalized ~jobs:4 ids in
  checks "sweep JSON identical across two same-seed runs" j1 j1';
  checks "sweep JSON identical at -j1 / -j4" j1 j4

let test_mutant_caught_any_jobs () =
  (* A planted bug must be found — and shrink to the same replayable
     counterexample — whichever worker's unit hits it first. *)
  let outcome_of jobs =
    M.reset ();
    Wfde.Harness.check_exhaustive ~jobs ~procs:3 ~depth:10
      ~mutant:Wfde.Mutant.Abd_skip_write_back Wfde.Scenario.Abd
  in
  let c1 = outcome_of 1 in
  let c4 = outcome_of 4 in
  let c8 = outcome_of 8 in
  checkb "mutant caught at -j1" true (c1.Wfde.Harness.violation <> None);
  checkb "identical violation at -j4" true
    (c1.Wfde.Harness.violation = c4.Wfde.Harness.violation);
  checkb "identical violation at -j8" true
    (c1.Wfde.Harness.violation = c8.Wfde.Harness.violation)

(* -- first-use race ------------------------------------------------------ *)

(* The probe makes several domains finish their first parallel pool run
   at once; only a process's first run can hit one-time set-up, so it
   needs fresh processes. Module-level lazy counter handles once raised
   [CamlinternalLazy.Undefined] here in about one run in five. *)
let probe_runs = 200

let test_first_use_race () =
  let probe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "pool_race/pool_race_probe.exe"
  in
  let failures = ref 0 in
  for _ = 1 to probe_runs do
    let pid =
      Unix.create_process probe [| probe |] Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> incr failures
  done;
  checki
    (Printf.sprintf "failed probe runs out of %d" probe_runs)
    0 !failures

(* -- exported JSONL determinism ---------------------------------------- *)

let test_trace_lines_identical () =
  (* Sharded seeds each build their own world; the traces they export
     must not depend on which domain ran them. *)
  let lines_of ~jobs =
    Pool.map_list
      (Pool.create ~jobs ())
      ~f:(fun seed ->
        let world =
          Wfde.Harness.random_world ~seed ~n_plus_1:3 ~max_faulty:1 ()
        in
        let rng = Kernel.Rng.create seed in
        let upsilon =
          Wfde.Upsilon.make ~rng ~pattern:world.Wfde.Harness.pattern ()
        in
        let proto =
          Wfde.Upsilon_sa.create ~name:"t" ~n_plus_1:3 ~upsilon ()
        in
        let _, run_trace =
          Testutil.exec_traced ~pattern:world.Wfde.Harness.pattern
            ~policy:world.Wfde.Harness.policy ~horizon:200_000
            ~procs:(fun pid ->
              [ Wfde.Upsilon_sa.proposer proto ~me:pid ~input:(100 + pid) ])
            ()
        in
        String.concat "\n" (Trace_export.to_lines run_trace))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  checkb "exported JSONL identical at -j1 / -j4" true
    (lines_of ~jobs:1 = lines_of ~jobs:4)

(* -- worker minor heaps ------------------------------------------------ *)

(* Workers size their own minor heap to 1M words, so they stop each
   other for minor collections less often; the caller, serial pools,
   nested pools and later domains keep their size. *)
let worker_words = 1 lsl 20
let minor_heap _ = (Gc.get ()).Gc.minor_heap_size

let test_worker_minor_heap () =
  let caller = minor_heap () in
  let units =
    Pool.map
      (Pool.create ~jobs:2 ())
      ~f:(fun _ ->
        let own = minor_heap () in
        (own, Pool.map (Pool.create ~jobs:2 ()) ~f:minor_heap 3))
      4
  in
  List.iter
    (fun (own, nested) ->
      checkb
        (Printf.sprintf "worker reads %d >= %d words" own worker_words)
        true (own >= worker_words);
      Alcotest.check ilist "a nested pool runs at its worker's size"
        [ own; own; own ] nested)
    units;
  checki "the caller keeps its size" caller (minor_heap ());
  Alcotest.check ilist "a jobs = 1 pool runs at the caller's size"
    [ caller; caller; caller ]
    (Pool.map (Pool.create ()) ~f:minor_heap 3);
  checki "a fresh domain starts at the startup size" caller
    (Domain.join (Domain.spawn minor_heap))

(* A larger startup size is never shrunk: the probe prints the caller's
   size and then each parallel unit's, under OCAMLRUNPARAM=s=4M. *)
let test_worker_keeps_larger_startup_heap () =
  let probe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "pool_race/pool_heap_probe.exe"
  in
  let env =
    Array.append
      [| "OCAMLRUNPARAM=s=4M" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env probe [| probe |] env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "pool heap probe failed");
  let startup = 4 lsl 20 in
  Alcotest.check ilist "caller and every worker keep the 4M-word startup size"
    [ startup; startup; startup; startup; startup ]
    (List.map int_of_string (String.split_on_char ' ' (String.trim out)))

let suite =
  [
    Alcotest.test_case "map merges in unit order" `Quick test_map_order;
    Alcotest.test_case "map_list keeps order" `Quick test_map_list;
    Alcotest.test_case "jobs clamped to [1,64]" `Quick test_jobs_clamped;
    Alcotest.test_case "slow units run once, merge in order" `Quick
      test_slow_units_spread;
    Alcotest.test_case "map_until returns serial prefix" `Quick
      test_map_until_prefix;
    Alcotest.test_case "lowest-index exception wins" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "absorbed metrics deterministic" `Quick
      test_metrics_deterministic;
    Alcotest.test_case "worker telemetry recorded" `Quick
      test_worker_telemetry;
    Alcotest.test_case "worker telemetry accumulates over calls" `Quick
      test_worker_telemetry_accumulates;
    Alcotest.test_case "E1 table identical at -j1/-j4" `Quick
      test_e1_table_identical;
    Alcotest.test_case "check sweep identical at -j1/-j4" `Slow
      test_check_identical;
    Alcotest.test_case "check --json repeatable in-process" `Slow
      test_check_json_repeatable;
    Alcotest.test_case "sweep JSON identical at -j1/-j4" `Slow
      test_sweep_json_identical;
    Alcotest.test_case "mutant violation identical at -j1/-j4" `Quick
      test_mutant_caught_any_jobs;
    Alcotest.test_case "exported JSONL identical at -j1/-j4" `Quick
      test_trace_lines_identical;
    Alcotest.test_case "concurrent first pool runs never raise" `Slow
      test_first_use_race;
    Alcotest.test_case "every table identical at -j1/-j3" `Quick
      test_every_table_identical;
    Alcotest.test_case "workers size their minor heap, caller keeps its"
      `Quick test_worker_minor_heap;
    Alcotest.test_case "workers keep a larger startup minor heap" `Quick
      test_worker_keeps_larger_startup_heap;
  ]
