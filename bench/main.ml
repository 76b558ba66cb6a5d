(* The benchmark harness.

   Part 1 regenerates every experiment table (E1-E11, A1-A3) — the
   paper's "evaluation" is its theorems, so each table reports a claim
   and the measurements backing it (see DESIGN.md's experiment index and
   EXPERIMENTS.md for the paper-vs-measured record).

   Part 1.5 re-runs representative experiments on a 1-worker and a
   4-worker Exec.Pool, recording serial vs parallel wall time and the
   speedup, and asserting the rendered tables are byte-identical — the
   determinism contract of the parallel sweep runner.

   Part 2 times the representative kernels with bechamel: one Test.make
   per experiment, plus substrate micro-benchmarks.

   With --json PATH, the same run also emits a machine-readable document
   (schema "wfde-bench/1"): per-experiment verdicts and wall times, the
   ns/run estimates, and the full telemetry-registry snapshot. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------- part 1 *)

let print_experiment_tables () =
  Format.printf "==================================================@.";
  Format.printf "Part 1: experiment tables (one per paper claim)@.";
  Format.printf "==================================================@.@.";
  let outcomes =
    List.map
      (fun (id, _) ->
        let f = Option.get (Wfde.Experiments.by_id id) in
        let t0 = Unix.gettimeofday () in
        let o = f () in
        (o, Unix.gettimeofday () -. t0))
      Wfde.Experiments.catalog
  in
  List.iter
    (fun (o, _) -> Format.printf "%a@." Wfde.Experiments.pp o)
    outcomes;
  let failed =
    List.filter (fun (o, _) -> not o.Wfde.Experiments.ok) outcomes
  in
  if failed = [] then
    Format.printf "summary: all %d experiment claims hold@.@."
      (List.length outcomes)
  else
    Format.printf "summary: FAILED claims: %s@.@."
      (String.concat ", "
         (List.map (fun (o, _) -> o.Wfde.Experiments.id) failed));
  outcomes

(* ----------------------------------------------------------- part 1.5 *)

(* Serial vs parallel sweep over the heaviest seed-sharded experiments.
   Tables must be byte-identical at every jobs value (checked here);
   only the wall clock may differ. On a >= 4-core host the parallel leg
   shows the speedup; on fewer cores domain-spawn overhead can make it
   slower — the recorded ratio is honest either way. *)

let sweep_selection = [ ("e1", 3); ("e2", 2); ("e6", 2) ]

let time_sweep ~jobs =
  List.map
    (fun (id, scale) ->
      let f = Option.get (Wfde.Experiments.by_id id) in
      let t0 = Unix.gettimeofday () in
      let o = f ~scale ~jobs () in
      let wall = Unix.gettimeofday () -. t0 in
      (id, Format.asprintf "%a" Wfde.Experiments.pp o, wall))
    sweep_selection

let parallel_sweep_entries () =
  Format.printf "==================================================@.";
  Format.printf "Part 1.5: serial vs parallel sweep (Exec.Pool)@.";
  Format.printf "==================================================@.@.";
  let serial = time_sweep ~jobs:1 in
  let parallel = time_sweep ~jobs:4 in
  let entries =
    List.map2
      (fun (id, table1, wall1) (_, table4, wall4) ->
        let identical = table1 = table4 in
        Format.printf
          "%-4s -j1 %7.3fs   -j4 %7.3fs   speedup %5.2fx   tables %s@." id
          wall1 wall4 (wall1 /. wall4)
          (if identical then "identical" else "DIFFER (BUG)");
        (id, wall1, wall4, identical))
      serial parallel
  in
  Format.printf "@.";
  if List.for_all (fun (_, _, _, i) -> i) entries then
    Format.printf "determinism: all tables byte-identical at -j1 / -j4@.@."
  else
    Format.printf "determinism: FAILED — tables differ between -j1 and -j4@.@.";
  entries

(* ------------------------------------------------------------- part 3 *)

(* DPOR / Lin macro-benchmark: the model-checking hot paths, measured
   with both the wall clock and deterministic work counters. The
   counters (executions, races, backtrack points, scheduler steps) are
   functions of the algorithm, not the machine, so a change in any of
   them is a behaviour change; minor-heap words measure allocation
   pressure and are deterministic per compiler. bench/compare.ml diffs
   the "macro" section of two wfde-bench/1 documents and fails on
   counter or allocation regressions — wall clock is reported but never
   gates. *)

type macro_entry = {
  macro_name : string;
  macro_wall : float;
  macro_minor_words : int;
  macro_counters : (string * int) list;
  macro_snap : Wfde.Metrics.snapshot;
}

(* Deterministic Lin workload: random-but-seeded register histories,
   shaped like the ones the scenarios record (per-process sequential
   operations, occasional pending write). The checker's verdict count
   is the deterministic counter. *)
let lin_histories ~histories ~procs ~ops_per_proc =
  let rng = Wfde.Rng.create 42 in
  List.init histories (fun _ ->
      let events = ref [] in
      for pid = 0 to procs - 1 do
        let t = ref (Wfde.Rng.int rng 3) in
        for _ = 1 to ops_per_proc do
          let dur = Wfde.Rng.int rng 4 in
          let invoked = !t and responded = !t + dur in
          t := responded + 1 + Wfde.Rng.int rng 3;
          let write = Wfde.Rng.int rng 3 = 0 in
          let ev =
            if write then
              let v = Wfde.Rng.int rng 3 in
              if Wfde.Rng.int rng 8 = 0 then
                Wfde.Lin.pending
                  ~op:(Wfde.Check.Histories.Reg_write v)
                  ~invoked ~pid
              else
                Wfde.Lin.completed
                  ~op:(Wfde.Check.Histories.Reg_write v)
                  ~result:Wfde.Check.Histories.Reg_unit ~invoked ~responded
                  ~pid
            else
              Wfde.Lin.completed ~op:Wfde.Check.Histories.Reg_read
                ~result:(Wfde.Check.Histories.Reg_val (Wfde.Rng.int rng 3))
                ~invoked ~responded ~pid
          in
          events := ev :: !events
        done
      done;
      List.rev !events)

let macro_configs : (string * (unit -> (string * int) list)) list =
  let check ?procs ?mutant ~depth obj =
    let o = Wfde.Harness.check_exhaustive ?procs ?mutant ~depth obj in
    [ ("violations", if o.Wfde.Harness.violation = None then 0 else 1) ]
  in
  [
    ( "check/register p2 d6",
      fun () -> check Wfde.Scenario.Register ~procs:2 ~depth:6 );
    ( "check/register p3 d8",
      fun () -> check Wfde.Scenario.Register ~procs:3 ~depth:8 );
    ( "check/snapshot p3 d12",
      fun () -> check Wfde.Scenario.Snapshot ~procs:3 ~depth:12 );
    ( "check/abd p3 d10 (25 crash patterns)",
      fun () -> check Wfde.Scenario.Abd ~procs:3 ~depth:10 );
    ( "check/abd p3 d12 (25 crash patterns)",
      fun () -> check Wfde.Scenario.Abd ~procs:3 ~depth:12 );
    ( "check/commit-adopt p3 d8",
      fun () -> check Wfde.Scenario.Commit_adopt ~procs:3 ~depth:8 );
    ( "check/mutant converge-drop-phase2 d6",
      fun () ->
        check Wfde.Scenario.Commit_adopt
          ~mutant:Wfde.Mutant.Converge_drop_phase2 ~depth:6 );
    ( "lin/register histories 400x12",
      fun () ->
        let hs = lin_histories ~histories:400 ~procs:3 ~ops_per_proc:4 in
        let spec = Wfde.Check.Histories.register_spec ~init:0 in
        let ok =
          List.fold_left
            (fun acc h ->
              match Wfde.Lin.check spec h with Ok () -> acc + 1 | Error _ -> acc)
            0 hs
        in
        [ ("lin_ok", ok) ] );
  ]

let macro_counter_names =
  [
    ("executions", "check.dpor.executions");
    ("sleep_blocked", "check.dpor.sleep_blocked");
    ("deduped", "check.dpor.deduped");
    ("races", "check.dpor.races");
    ("backtrack_points", "check.dpor.backtrack_points");
    ("scheduler_steps", "kernel.scheduler.steps");
    ("shrink_replays", "check.shrink.replays");
  ]

let run_macro_entry ?(metric_names = macro_counter_names) (name, f) =
  Wfde.Metrics.reset ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let extra = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let minor = int_of_float (Gc.minor_words () -. w0) in
  let snap = Wfde.Metrics.snapshot () in
  let counters =
    extra
    @ List.filter_map
        (fun (label, metric) ->
          match Wfde.Metrics.find_counter snap metric with
          | Some v when v > 0 -> Some (label, v)
          | Some _ | None -> None)
        metric_names
  in
  {
    macro_name = name;
    macro_wall = wall;
    macro_minor_words = minor;
    macro_counters = counters;
  macro_snap = snap;
  }

let macro_entries () =
  Format.printf "==================================================@.";
  Format.printf "Part 3: DPOR/Lin macro-bench (deterministic counters)@.";
  Format.printf "==================================================@.@.";
  (* Each entry runs on a freshly reset registry so its counters are its
     own; the pre-existing totals (parts 1-2) are saved and re-absorbed
     afterwards, together with every entry's snapshot, so the final
     telemetry section still covers the whole process. *)
  let saved = Wfde.Metrics.snapshot () in
  let entries = List.map run_macro_entry macro_configs in
  Wfde.Metrics.reset ();
  Wfde.Metrics.absorb saved;
  List.iter (fun e -> Wfde.Metrics.absorb e.macro_snap) entries;
  List.iter
    (fun e ->
      Format.printf "%-38s %8.3fs  %11d minor words  %s@." e.macro_name
        e.macro_wall e.macro_minor_words
        (String.concat " "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              e.macro_counters)))
    entries;
  Format.printf "@.";
  entries

(* ------------------------------------------------------------- part 4 *)

(* Service-daemon throughput/latency: an in-process daemon serving the
   deterministic Loadgen workload, one serial leg (1 client) and one
   concurrent leg (4 clients) over the SAME global request indices.
   Wall time, throughput, and latency percentiles are machine-dependent
   and never gate; the work counters are deterministic and do:
   errors / requests_missing / payload_mismatches must stay 0, and
   payload_bytes is an exact function of the workload (the serial and
   concurrent legs must agree on it — that is the daemon's determinism
   contract under concurrency). *)

type serve_entry = {
  serve_name : string;
  serve_wall : float;
  serve_rps : float;
  serve_p50 : float;
  serve_p95 : float;
  serve_p99 : float;
  serve_counters : (string * int) list;
}

let serve_requests = 60
let serve_clients = 4

let latency_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let serve_entry_of ~name ~(leg : Serve.Loadgen.leg) ~extra_counters =
  let sorted =
    let a =
      Array.of_list
        (List.filter (fun l -> l > 0.) (Array.to_list leg.latencies_ms))
    in
    Array.sort compare a;
    a
  in
  {
    serve_name = name;
    serve_wall = leg.wall_seconds;
    serve_rps =
      (if leg.wall_seconds > 0. then float_of_int leg.ok /. leg.wall_seconds
       else 0.);
    serve_p50 = latency_percentile sorted 0.50;
    serve_p95 = latency_percentile sorted 0.95;
    serve_p99 = latency_percentile sorted 0.99;
    serve_counters =
      [
        ("errors", leg.errors + leg.transport_errors);
        ("requests_missing", leg.total - leg.ok);
        ("payload_bytes", leg.payload_bytes);
      ]
      @ extra_counters;
  }

let bench_socket tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "wfde-bench-%s-%d.sock" tag (Unix.getpid ()))

let print_serve_entries entries =
  List.iter
    (fun e ->
      Format.printf
        "%-34s %7.3fs  %8.1f req/s  p50 %6.2fms p95 %6.2fms p99 %6.2fms  %s@."
        e.serve_name e.serve_wall e.serve_rps e.serve_p50 e.serve_p95
        e.serve_p99
        (String.concat " "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              e.serve_counters)))
    entries;
  Format.printf "@."

(* Returns the entries plus the untraced serial leg, which part 5 uses
   as the payload reference for the tracing-is-invisible gate. *)
let serve_entries () =
  Format.printf "==================================================@.";
  Format.printf "Part 4: service daemon (deterministic load generator)@.";
  Format.printf "==================================================@.@.";
  let socket = bench_socket "plain" in
  (* cache off: part 4 measures the engine fleet; part 6 measures the
     cache *)
  let daemon =
    Serve.Daemon.start ~workers:serve_clients ~queue_capacity:64
      ~cache:Serve.Cache.disabled ~socket ()
  in
  let entries, serial =
    Fun.protect
      ~finally:(fun () -> Serve.Daemon.stop daemon)
      (fun () ->
        let serial =
          Serve.Loadgen.run ~socket ~total:serve_requests ~clients:1 ()
        in
        let concurrent =
          Serve.Loadgen.run ~socket ~total:serve_requests
            ~clients:serve_clients ()
        in
        let mismatches = Serve.Loadgen.mismatches ~reference:serial concurrent in
        ( [
            serve_entry_of
              ~name:
                (Printf.sprintf "serve/serial %d reqs x1 client" serve_requests)
              ~leg:serial ~extra_counters:[];
            serve_entry_of
              ~name:
                (Printf.sprintf "serve/concurrent %d reqs x%d clients"
                   serve_requests serve_clients)
              ~leg:concurrent
              ~extra_counters:[ ("payload_mismatches", mismatches) ];
          ],
          serial ))
  in
  print_serve_entries entries;
  (entries, serial)

(* ------------------------------------------------------------- part 5 *)

(* Tracing overhead: the same workload against a daemon with a span
   sink, every request carrying a trace id. The deterministic gates:
   payloads must be byte-identical to the untraced part-4 reference
   (tracing must be invisible in response bytes), no request may fail,
   and the exported span count is an exact function of the workload —
   identical for the serial and the concurrent leg. Wall time and
   throughput (the actual overhead) are reported but never gate. *)

let tracing_entries ~reference ~spans_out =
  Format.printf "==================================================@.";
  Format.printf "Part 5: tracing overhead (spans on, payloads gated)@.";
  Format.printf "==================================================@.@.";
  let socket = bench_socket "traced" in
  let chan = Option.map open_out spans_out in
  let sink =
    match chan with
    | Some oc -> Wfde.Obs.Span.sink ~out:oc ()
    | None -> Wfde.Obs.Span.sink ()
  in
  (* cache off: with caching, first-occurrence misses and later hits
     would export different span trees per index and the gated span
     count would stop being a pure function of the workload *)
  let daemon =
    Serve.Daemon.start ~workers:serve_clients ~queue_capacity:64
      ~cache:Serve.Cache.disabled ~trace:sink ~socket ()
  in
  let entries =
    Fun.protect
      ~finally:(fun () ->
        Serve.Daemon.stop daemon;
        Option.iter close_out chan)
      (fun () ->
        let leg ~trace_prefix ~clients =
          let before = Wfde.Obs.Span.absorbed sink in
          let l =
            Serve.Loadgen.run ~trace_prefix ~socket ~total:serve_requests
              ~clients ()
          in
          (l, Wfde.Obs.Span.absorbed sink - before)
        in
        let serial, serial_spans = leg ~trace_prefix:"s" ~clients:1 in
        let concurrent, concurrent_spans =
          leg ~trace_prefix:"c" ~clients:serve_clients
        in
        let entry ~name ~l ~spans =
          serve_entry_of ~name ~leg:l
            ~extra_counters:
              [
                ("spans", spans);
                ( "payload_mismatches_vs_untraced",
                  Serve.Loadgen.mismatches ~reference l );
              ]
        in
        [
          entry
            ~name:
              (Printf.sprintf "serve+trace/serial %d reqs x1 client"
                 serve_requests)
            ~l:serial ~spans:serial_spans;
          entry
            ~name:
              (Printf.sprintf "serve+trace/concurrent %d reqs x%d clients"
                 serve_requests serve_clients)
            ~l:concurrent ~spans:concurrent_spans;
        ])
  in
  print_serve_entries entries;
  (match entries with
  | { serve_rps = traced_rps; _ } :: _ when reference.Serve.Loadgen.wall_seconds > 0. ->
      let untraced_rps =
        float_of_int reference.Serve.Loadgen.ok
        /. reference.Serve.Loadgen.wall_seconds
      in
      if untraced_rps > 0. then
        Format.printf
          "tracing overhead (serial, wall-clock, not gated): %.1f%% \
           throughput drop (%.1f req/s untraced -> %.1f traced)@.@."
          ((untraced_rps -. traced_rps) /. untraced_rps *. 100.)
          untraced_rps traced_rps
  | _ -> ());
  (match spans_out with
  | Some path -> Format.printf "wrote wfde-span/1 JSONL to %s@.@." path
  | None -> ());
  entries

(* ------------------------------------------------------------- part 6 *)

(* Result cache under the Zipf-skewed repeated-request scenario: one
   uncached reference leg, then — against a caching daemon, over the
   SAME global request indices — a cold-to-warm serial leg, a fully
   warm "hot" leg (every request a hit), and a concurrent leg.
   Deterministic gates: errors / requests_missing stay 0,
   payload_mismatches against the uncached reference stays 0 (cached
   bytes == computed bytes), class_mismatches stays 0 (-j1/-j2 twins
   byte-identical), cache_misses is exactly the number of distinct
   classes the seed samples, and the hot leg computes nothing
   (cache_misses_during_leg=0). Throughput — where the
   order-of-magnitude win shows up, measured on the hot leg — is
   reported but never gates. *)

let zipf_total = 150
let zipf_seed = 11

let cache_bench_entries () =
  Format.printf "==================================================@.";
  Format.printf "Part 6: result cache (Zipf-skewed repeated requests)@.";
  Format.printf "==================================================@.@.";
  let skew = Serve.Loadgen.default_skew in
  let universe = Serve.Loadgen.default_universe in
  let classes =
    Serve.Loadgen.zipf_distinct_classes ~seed:zipf_seed ~skew ~universe
      ~total:zipf_total
  in
  let run_leg ~socket ~clients =
    Serve.Loadgen.run_zipf ~seed:zipf_seed ~socket ~total:zipf_total ~clients ()
  in
  let uncached =
    let socket = bench_socket "uncached" in
    let daemon =
      Serve.Daemon.start ~workers:serve_clients ~queue_capacity:64
        ~cache:Serve.Cache.disabled ~socket ()
    in
    Fun.protect
      ~finally:(fun () -> Serve.Daemon.stop daemon)
      (fun () -> run_leg ~socket ~clients:1)
  in
  let socket = bench_socket "cached" in
  let daemon =
    Serve.Daemon.start ~workers:serve_clients ~queue_capacity:64 ~socket ()
  in
  let serial, serial_stats, hot, hot_stats, concurrent =
    Fun.protect
      ~finally:(fun () -> Serve.Daemon.stop daemon)
      (fun () ->
        let serial = run_leg ~socket ~clients:1 in
        let stats = Serve.Daemon.cache_stats daemon in
        (* the same leg again, now fully warm: every request is a hit,
           which is where the throughput multiple is measured *)
        let hot = run_leg ~socket ~clients:1 in
        let hot_stats = Serve.Daemon.cache_stats daemon in
        let concurrent = run_leg ~socket ~clients:serve_clients in
        (serial, stats, hot, hot_stats, concurrent))
  in
  let class_mismatches l =
    Serve.Loadgen.zipf_class_mismatches ~seed:zipf_seed l
  in
  let entries =
    [
      serve_entry_of
        ~name:(Printf.sprintf "cache/zipf uncached %d reqs x1 client" zipf_total)
        ~leg:uncached
        ~extra_counters:[ ("class_mismatches", class_mismatches uncached) ];
      serve_entry_of
        ~name:(Printf.sprintf "cache/zipf cached %d reqs x1 client" zipf_total)
        ~leg:serial
        ~extra_counters:
          [
            ( "payload_mismatches",
              Serve.Loadgen.mismatches ~reference:uncached serial );
            ("class_mismatches", class_mismatches serial);
            ("cache_misses", serial_stats.Serve.Cache.misses);
            ("cache_hits", serial_stats.Serve.Cache.hits);
            ("expected_misses", classes);
          ];
      serve_entry_of
        ~name:
          (Printf.sprintf "cache/zipf cached hot %d reqs x1 client" zipf_total)
        ~leg:hot
        ~extra_counters:
          [
            ( "payload_mismatches",
              Serve.Loadgen.mismatches ~reference:uncached hot );
            ("class_mismatches", class_mismatches hot);
            ( "cache_misses_during_leg",
              hot_stats.Serve.Cache.misses - serial_stats.Serve.Cache.misses );
            ( "cache_hits_during_leg",
              hot_stats.Serve.Cache.hits - serial_stats.Serve.Cache.hits );
          ];
      serve_entry_of
        ~name:
          (Printf.sprintf "cache/zipf cached %d reqs x%d clients" zipf_total
             serve_clients)
        ~leg:concurrent
        ~extra_counters:
          [
            ( "payload_mismatches",
              Serve.Loadgen.mismatches ~reference:uncached concurrent );
            ("class_mismatches", class_mismatches concurrent);
          ];
    ]
  in
  print_serve_entries entries;
  let rps (l : Serve.Loadgen.leg) =
    if l.wall_seconds > 0. then float_of_int l.ok /. l.wall_seconds else 0.
  in
  if rps uncached > 0. then
    Format.printf
      "cache speedup (hot hit-only leg, wall-clock, not gated): %.1fx \
       (%.1f req/s uncached -> %.1f hot; warm leg %.1f req/s with %d hits / \
       %d misses over %d classes)@.@."
      (rps hot /. rps uncached)
      (rps uncached) (rps hot) (rps serial) serial_stats.Serve.Cache.hits
      serial_stats.Serve.Cache.misses classes;
  entries

(* ------------------------------------------------------------- part 8 *)

(* Oracle vs implemented detectors: the heartbeat monitors and the link
   layer under them, measured with deterministic work counters only —
   link traffic (sent/delivered/dropped/delayed), detector churn
   (heartbeats, suspicions, restores, timeout raises), scheduler steps,
   spec verdicts, stabilization/decision-time totals, and DPOR
   executions over the partial-synchrony scenarios. All are exact
   functions of the simulated world, so bench/compare.ml gates this
   section entry by entry like "macro". *)

let hb_bench_net =
  { Wfde.Link.gst = 60; delta = 2; pre_delay = 8; loss_pct = 40; link_seed = 6 }

let detector_impl_counter_names =
  macro_counter_names
  @ [
      ("link_sent", "net.link.sent{link=hb_ev_perfect}");
      ("link_delivered", "net.link.delivered{link=hb_ev_perfect}");
      ("link_dropped", "net.link.dropped{link=hb_ev_perfect}");
      ("link_delayed", "net.link.delayed{link=hb_ev_perfect}");
      ("hb_heartbeats", "hb.heartbeats{family=hb_ev_perfect}");
      ("hb_suspicions", "hb.suspicions{family=hb_ev_perfect}");
      ("hb_restores", "hb.restores{family=hb_ev_perfect}");
      ("hb_timeout_raises", "hb.timeout_raises{family=hb_ev_perfect}");
    ]

let detector_impl_configs : (string * (unit -> (string * int) list)) list =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let world seed =
    Wfde.Harness.random_world ~seed ~n_plus_1:3 ~max_faulty:1 ~latest:60 ()
  in
  let monitors mode =
    let runs =
      List.map
        (fun seed ->
          Wfde.Harness.run_hb_detector ~mode ~net:hb_bench_net (world seed))
        [ 1; 2; 3 ]
    in
    [
      ("spec_ok", sum (fun (v, _) -> if Result.is_ok v then 1 else 0) runs);
      ("stab_total", sum snd runs);
    ]
  in
  let check ?mutant obj =
    let o =
      Wfde.Harness.check_exhaustive ?mutant ~procs:2 ~depth:5 ~horizon:500 obj
    in
    [ ("violations", if o.Wfde.Harness.violation = None then 0 else 1) ]
  in
  let chaos = Wfde.Scenario.default_chaos in
  [
    ("hb/evP monitors gst=60 loss=40 (3 worlds)", fun () -> monitors `Ev_perfect);
    ("hb/evS monitors gst=60 loss=40 (3 worlds)", fun () -> monitors `Ev_strong);
    ( "extraction/oracle-vs-hb f=2 (2 worlds)",
      fun () ->
        let rs =
          List.map
            (fun seed ->
              let w () =
                Wfde.Harness.random_world ~seed:(4000 + seed) ~n_plus_1:4
                  ~max_faulty:2 ~latest:150 ()
              in
              let oracle, _ =
                Wfde.Harness.run_extraction_of ~f:2 ~source:`Ev_perfect (w ())
              in
              let implemented, stab =
                Wfde.Harness.run_extraction_of ~f:2
                  ~source:(`Hb_ev_perfect hb_bench_net) (w ())
              in
              ( (if Result.is_ok oracle && Result.is_ok implemented then 1
                 else 0),
                stab ))
            [ 1; 2 ]
        in
        [
          ("both_ok", sum fst rs);
          ("hb_stab_total", sum snd rs);
        ] );
    ( "consensus/oracle-vs-hb n=3 (2 worlds)",
      fun () ->
        let rs =
          List.map
            (fun seed ->
              let w () =
                Wfde.Harness.random_world ~seed:(300 + seed) ~n_plus_1:3
                  ~max_faulty:1 ~latest:100 ()
              in
              let oracle, mem_o =
                Wfde.Harness.run_msg_consensus ~horizon:60_000 (w ())
              in
              let impl, mem_i =
                Wfde.Harness.run_msg_consensus ~horizon:60_000
                  ~omega_impl:hb_bench_net (w ())
              in
              let ok =
                Wfde.Harness.ok oracle && Wfde.Harness.ok impl
                && mem_o = Ok () && mem_i = Ok ()
              in
              ( (if ok then 1 else 0),
                impl.Wfde.Harness.last_decision_time,
                impl.Wfde.Harness.query_violations ))
            [ 1; 2 ]
        in
        [
          ("both_ok", sum (fun (x, _, _) -> x) rs);
          ("hb_decide_total", sum (fun (_, t, _) -> t) rs);
          ("query_violations", sum (fun (_, _, q) -> q) rs);
        ] );
    ( "check/hb-detector p2 d5",
      fun () -> check (Wfde.Scenario.Hb_detector chaos) );
    ( "check/link-chaos p2 d5",
      fun () -> check (Wfde.Scenario.Link_chaos chaos) );
    ( "check/hb-mutant timeout-never-increased d5",
      fun () ->
        check ~mutant:Wfde.Mutant.Hb_timeout_never_increased
          (Wfde.Scenario.Hb_detector chaos) );
  ]

let detector_impl_entries () =
  Format.printf "==================================================@.";
  Format.printf "Part 8: oracle vs implemented detectors (counters)@.";
  Format.printf "==================================================@.@.";
  let saved = Wfde.Metrics.snapshot () in
  let entries =
    List.map
      (run_macro_entry ~metric_names:detector_impl_counter_names)
      detector_impl_configs
  in
  Wfde.Metrics.reset ();
  Wfde.Metrics.absorb saved;
  List.iter (fun e -> Wfde.Metrics.absorb e.macro_snap) entries;
  List.iter
    (fun e ->
      Format.printf "%-42s %8.3fs  %11d minor words  %s@." e.macro_name
        e.macro_wall e.macro_minor_words
        (String.concat " "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              e.macro_counters)))
    entries;
  Format.printf "@.";
  entries

(* ------------------------------------------------------------- part 2 *)

let fig1_world seed =
  Wfde.Harness.random_world ~seed ~n_plus_1:4 ~max_faulty:3 ()

let bench_fig1 () =
  let seed = ref 0 in
  Test.make ~name:"e1/fig1-upsilon-sa (n+1=4)"
    (Staged.stage (fun () ->
         incr seed;
         ignore (Wfde.Harness.run_fig1 (fig1_world !seed))))

let bench_fig2 () =
  let seed = ref 0 in
  Test.make ~name:"e2/fig2-upsilon-f-sa (n+1=4, f=2)"
    (Staged.stage (fun () ->
         incr seed;
         let world =
           Wfde.Harness.random_world ~seed:!seed ~n_plus_1:4 ~max_faulty:2 ()
         in
         ignore (Wfde.Harness.run_fig2 ~f:2 world)))

let bench_adversary () =
  Test.make ~name:"e3-e4/adversary (5 phases)"
    (Staged.stage (fun () ->
         ignore
           (Wfde.Adversary.run Wfde.Adversary.Candidates.top_movers ~n_plus_1:3
              ~f:2 ~max_phases:5 ~phase_budget:4000)))

let bench_extraction () =
  let seed = ref 0 in
  Test.make ~name:"e5/fig3-extraction (from omega)"
    (Staged.stage (fun () ->
         incr seed;
         let world =
           Wfde.Harness.random_world ~seed:!seed ~n_plus_1:3 ~max_faulty:2
             ~latest:100 ()
         in
         ignore
           (Wfde.Harness.run_extraction_of ~horizon:40_000 ~tail:8_000 ~f:2
              ~source:`Omega world)))

let bench_pairwise () =
  let seed = ref 0 in
  Test.make ~name:"e6/upsilon1->omega (timestamps)"
    (Staged.stage (fun () ->
         incr seed;
         let rng = Wfde.Rng.create !seed in
         let pattern =
           Wfde.Failure_pattern.random rng ~n_plus_1:3 ~max_faulty:1 ~latest:60
         in
         let d = Wfde.Upsilon_f.make ~rng ~pattern ~f:1 ~stab_time:40 () in
         let red =
           Wfde.Pairwise.Omega_from_upsilon1.create ~name:"o1" ~n_plus_1:3
             ~upsilon1:(Wfde.Detector.source d)
         in
         ignore
           (Wfde.Run.exec ~pattern
              ~policy:(Wfde.Policy.random (Wfde.Rng.split rng))
              ~horizon:30_000
              ~procs:(fun pid ->
                Wfde.Pairwise.Omega_from_upsilon1.fibers red ~me:pid)
              ())))

let bench_omega_n_baseline () =
  let seed = ref 0 in
  Test.make ~name:"e7/omega-n baseline (n+1=4)"
    (Staged.stage (fun () ->
         incr seed;
         ignore
           (Wfde.Harness.run_omega_k_baseline ~k:3 (fig1_world (!seed + 5000)))))

let bench_booster () =
  let seed = ref 0 in
  Test.make ~name:"e9/booster consensus (n+1=4)"
    (Staged.stage (fun () ->
         incr seed;
         let rng = Wfde.Rng.create !seed in
         let pattern =
           Wfde.Failure_pattern.random rng ~n_plus_1:4 ~max_faulty:3
             ~latest:200
         in
         let omega_n = Wfde.Omega_k.make ~rng ~pattern ~k:3 () in
         let proto =
           Wfde.Agreement.Booster_consensus.create ~name:"b" ~n_plus_1:4
             ~omega_n:(Wfde.Detector.source omega_n)
         in
         ignore
           (Wfde.Run.exec ~pattern ~policy:(Wfde.Policy.random rng)
              ~horizon:500_000
              ~procs:(fun pid ->
                [
                  Wfde.Agreement.Booster_consensus.proposer proto ~me:pid
                    ~input:pid;
                ])
              ())))

let bench_fig2_snapshot impl =
  let seed = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "a3/fig2 on %s snapshots"
         (Wfde.Memory.Snap.impl_name impl))
    (Staged.stage (fun () ->
         incr seed;
         let world =
           Wfde.Harness.random_world ~seed:!seed ~n_plus_1:4 ~max_faulty:2 ()
         in
         ignore (Wfde.Harness.run_fig2 ~snapshot_impl:impl ~f:2 world)))

let bench_msg_consensus () =
  let seed = ref 0 in
  Test.make ~name:"e11/msg consensus over ABD (n+1=3)"
    (Staged.stage (fun () ->
         incr seed;
         let rng = Wfde.Rng.create !seed in
         let pattern =
           Wfde.Failure_pattern.random rng ~n_plus_1:3 ~max_faulty:1
             ~latest:200
         in
         let omega = Wfde.Omega.make ~rng ~pattern () in
         let proto =
           Wfde.Agreement.Msg_consensus.create ~name:"mc" ~n_plus_1:3
             ~omega:(Wfde.Detector.source omega)
         in
         ignore
           (Wfde.Run.exec ~pattern ~policy:(Wfde.Policy.random rng)
              ~horizon:2_000_000
              ~procs:(fun pid ->
                Wfde.Agreement.Msg_consensus.fibers proto ~me:pid ~input:pid)
              ())))

let bench_async_lockstep () =
  Test.make ~name:"e8/async lockstep to horizon 20k"
    (Staged.stage (fun () ->
         let world =
           {
             Wfde.Harness.pattern = Wfde.Failure_pattern.no_failures ~n_plus_1:3;
             policy = Wfde.Policy.round_robin ();
             world_rng = Wfde.Rng.create 1;
           }
         in
         ignore (Wfde.Harness.run_async_attempt ~horizon:20_000 world)))

let bench_snapshot impl =
  let name, runner =
    match impl with
    | `Registers ->
        ( "a1/snapshot-afek (n+1=4, 10 ops)",
          fun () ->
            let snap =
              Wfde.Snapshot.create ~name:"b" ~size:4 ~init:(fun _ -> 0)
            in
            let body pid () =
              for i = 1 to 10 do
                Wfde.Snapshot.update snap ~me:pid i;
                ignore (Wfde.Snapshot.scan snap)
              done
            in
            ignore
              (Wfde.Run.exec
                 ~pattern:(Wfde.Failure_pattern.no_failures ~n_plus_1:4)
                 ~policy:(Wfde.Policy.random (Wfde.Rng.create 3))
                 ~horizon:1_000_000
                 ~procs:(fun pid -> [ body pid ])
                 ()) )
    | `Native ->
        ( "a1/snapshot-native (n+1=4, 10 ops)",
          fun () ->
            let snap =
              Wfde.Memory.Native_snapshot.create ~name:"b" ~size:4
                ~init:(fun _ -> 0)
            in
            let body pid () =
              for i = 1 to 10 do
                Wfde.Memory.Native_snapshot.update snap ~me:pid i;
                ignore (Wfde.Memory.Native_snapshot.scan snap)
              done
            in
            ignore
              (Wfde.Run.exec
                 ~pattern:(Wfde.Failure_pattern.no_failures ~n_plus_1:4)
                 ~policy:(Wfde.Policy.random (Wfde.Rng.create 3))
                 ~horizon:1_000_000
                 ~procs:(fun pid -> [ body pid ])
                 ()) )
  in
  Test.make ~name (Staged.stage runner)

let bench_converge () =
  let seed = ref 0 in
  Test.make ~name:"substrate/k-converge (n+1=4, k=2)"
    (Staged.stage (fun () ->
         incr seed;
         let inst =
           Wfde.Converge.create ~name:"b" ~k:2 ~size:4
             ~compare:Int.compare
         in
         let body pid () =
           ignore (Wfde.Converge.run inst ~me:pid (pid mod 3))
         in
         ignore
           (Wfde.Run.exec
              ~pattern:(Wfde.Failure_pattern.no_failures ~n_plus_1:4)
              ~policy:(Wfde.Policy.random (Wfde.Rng.create !seed))
              ~horizon:1_000_000
              ~procs:(fun pid -> [ body pid ])
              ())))

let bench_scheduler () =
  Test.make ~name:"substrate/scheduler 10k nop steps"
    (Staged.stage (fun () ->
         let body () =
           for _ = 1 to 2_500 do
             Wfde.Sim.yield ()
           done
         in
         ignore
           (Wfde.Run.exec
              ~pattern:(Wfde.Failure_pattern.no_failures ~n_plus_1:4)
              ~policy:(Wfde.Policy.round_robin ())
              ~horizon:20_000
              ~procs:(fun _ -> [ body ])
              ())))

let bench_dpor () =
  Test.make ~name:"check/dpor register n=2 d=6 (full sweep)"
    (Staged.stage (fun () ->
         ignore (Wfde.Harness.check_exhaustive ~depth:6 Wfde.Scenario.Register)))

let bench_dpor_vs_naive () =
  Test.make ~name:"check/naive register n=2 d=6 (full sweep)"
    (Staged.stage (fun () ->
         ignore
           (Wfde.Check.Explore.naive_prefix
              ~pattern:(Wfde.Failure_pattern.no_failures ~n_plus_1:2)
              ~depth:6 ~horizon:400
              ~make:(Wfde.Scenario.make Wfde.Scenario.Register ~procs:2)
              ())))

let all_tests () =
  [
    bench_scheduler ();
    bench_dpor ();
    bench_dpor_vs_naive ();
    bench_snapshot `Registers;
    bench_snapshot `Native;
    bench_converge ();
    bench_fig1 ();
    bench_fig2 ();
    bench_adversary ();
    bench_extraction ();
    bench_pairwise ();
    bench_omega_n_baseline ();
    bench_async_lockstep ();
    bench_booster ();
    bench_msg_consensus ();
    bench_fig2_snapshot Wfde.Memory.Snap.Registers;
    bench_fig2_snapshot Wfde.Memory.Snap.Native;
  ]

let run_benchmarks () =
  Format.printf "==================================================@.";
  Format.printf "Part 2: bechamel timings (monotonic clock, ns/run)@.";
  Format.printf "==================================================@.@.";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let nanos =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | Some [] | None -> nan
          in
          estimates := (name, nanos) :: !estimates;
          Format.printf "%-42s %12.0f ns/run  (%6.2f ms)@." name nanos
            (nanos /. 1e6))
        analysis)
    (all_tests ());
  Format.printf "@.";
  List.rev !estimates

(* --------------------------------------------------------- json output *)

let serve_section_json entries =
  let module J = Wfde.Json in
  J.List
    (List.map
       (fun e ->
         J.Obj
           [
             ("name", J.String e.serve_name);
             ("wall_seconds", J.Float e.serve_wall);
             ("throughput_rps", J.Float e.serve_rps);
             ( "latency_ms",
               J.Obj
                 [
                   ("p50", J.Float e.serve_p50);
                   ("p95", J.Float e.serve_p95);
                   ("p99", J.Float e.serve_p99);
                 ] );
             ( "counters",
               J.Obj (List.map (fun (k, v) -> (k, J.Int v)) e.serve_counters)
             );
           ])
       entries)

let macro_section_json entries =
  let module J = Wfde.Json in
  J.List
    (List.map
       (fun e ->
         J.Obj
           [
             ("name", J.String e.macro_name);
             ("wall_seconds", J.Float e.macro_wall);
             ("minor_words", J.Int e.macro_minor_words);
             ( "counters",
               J.Obj (List.map (fun (k, v) -> (k, J.Int v)) e.macro_counters)
             );
           ])
       entries)

let json_document ~outcomes ~sweep ~benchmarks ~macro ~serve ~serve_tracing
    ~serve_cache ~detector_impl =
  let module J = Wfde.Json in
  J.Obj
    [
      ("schema", J.String "wfde-bench/1");
      ( "experiments",
        J.List
          (List.map
             (fun (o, wall) ->
               J.Obj
                 [
                   ("id", J.String o.Wfde.Experiments.id);
                   ("ok", J.Bool o.Wfde.Experiments.ok);
                   ("wall_seconds", J.Float wall);
                 ])
             outcomes) );
      ( "parallel_sweep",
        J.List
          (List.map
             (fun (id, wall1, wall4, identical) ->
               J.Obj
                 [
                   ("id", J.String id);
                   ("wall_seconds_j1", J.Float wall1);
                   ("wall_seconds_j4", J.Float wall4);
                   ("speedup", J.Float (wall1 /. wall4));
                   ("tables_identical", J.Bool identical);
                 ])
             sweep) );
      ( "benchmarks",
        J.List
          (List.map
             (fun (name, nanos) ->
               J.Obj
                 [ ("name", J.String name); ("ns_per_run", J.Float nanos) ])
             benchmarks) );
      ("macro", macro_section_json macro);
      ("serve", serve_section_json serve);
      ("serve_tracing", serve_section_json serve_tracing);
      ("serve_cache", serve_section_json serve_cache);
      ("detector_impl", macro_section_json detector_impl);
      ("metrics", Wfde.Metrics.to_json (Wfde.Metrics.snapshot ()));
    ]

let parse_args () =
  let json = ref None
  and spans_out = ref None
  and macro_only = ref false
  and serve_only = ref false in
  let rec walk = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json := Some path;
        walk rest
    | "--json" :: [] -> failwith "--json requires a PATH argument"
    | "--spans-out" :: path :: rest ->
        spans_out := Some path;
        walk rest
    | "--spans-out" :: [] -> failwith "--spans-out requires a PATH argument"
    | "--macro-only" :: rest ->
        macro_only := true;
        walk rest
    | "--serve-only" :: rest ->
        serve_only := true;
        walk rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S" arg)
  in
  walk (List.tl (Array.to_list Sys.argv));
  (!json, !spans_out, !macro_only, !serve_only)

let () =
  let json_path, spans_out, macro_only, serve_only = parse_args () in
  let quick = macro_only || serve_only in
  let outcomes = if quick then [] else print_experiment_tables () in
  let sweep = if quick then [] else parallel_sweep_entries () in
  let benchmarks = if quick then [] else run_benchmarks () in
  let macro = if serve_only then [] else macro_entries () in
  let detector_impl = if serve_only then [] else detector_impl_entries () in
  (* parts 4-6 run in every mode: they are cheap, and keeping them
     in the --macro-only document is what lets CI gate their counters *)
  let serve, untraced_serial = serve_entries () in
  let serve_tracing = tracing_entries ~reference:untraced_serial ~spans_out in
  let serve_cache = cache_bench_entries () in
  match json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (Wfde.Json.to_string
               (json_document ~outcomes ~sweep ~benchmarks ~macro ~serve
                  ~serve_tracing ~serve_cache ~detector_impl));
          output_char oc '\n');
      Format.printf "wrote machine-readable results to %s@." path
