(* The gated benchmark: every section it emits is built from
   deterministic work counters, and bench/compare.exe gates each one
   against the committed baseline.

   Part 3 runs the DPOR/Lin model-checking hot paths, part 8 the
   heartbeat detectors and the link layer under them, and parts 4-6
   drive an in-process daemon with the deterministic load generator
   (plain, traced, and behind the result cache). The part numbers are
   the section names the docs and CI use.

   The experiment tables and their timings are not repeated here:
   [wfde run] and [wfde sweep] regenerate them.

   With --json PATH the run also writes a wfde-bench/1 document: the
   five gated sections plus the full telemetry-registry snapshot. With
   --spans-out PATH part 5 keeps its exported spans. *)

let banner title =
  Format.printf "==================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================@.@."

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

(* Parts 3 and 8. Each entry runs on a freshly reset registry, so its
   counters are its own; the entry point at the bottom folds every entry's
   snapshot back in, so the metrics section covers the whole process. *)
let counter_entries ~title ?metric_names configs =
  banner title;
  let entries = List.map (run_macro_entry ?metric_names) configs in
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
  banner "Part 4: service daemon (deterministic load generator)";
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
  banner "Part 5: tracing overhead (spans on, payloads gated)";
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
  banner "Part 6: result cache (Zipf-skewed repeated requests)";
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
                Wfde.Harness.run_msg_consensus ~horizon:60_000
                  ~omega_impl:None (w ())
              in
              let impl, mem_i =
                Wfde.Harness.run_msg_consensus ~horizon:60_000
                  ~omega_impl:(Some hb_bench_net) (w ())
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

let json_document ~macro ~serve ~serve_tracing ~serve_cache ~detector_impl =
  let module J = Wfde.Json in
  J.Obj
    [
      ("schema", J.String "wfde-bench/1");
      ("macro", macro_section_json macro);
      ("serve", serve_section_json serve);
      ("serve_tracing", serve_section_json serve_tracing);
      ("serve_cache", serve_section_json serve_cache);
      ("detector_impl", macro_section_json detector_impl);
      ("metrics", Wfde.Metrics.to_json (Wfde.Metrics.snapshot ()));
    ]

let parse_args () =
  let json = ref None and spans_out = ref None in
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
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S" arg)
  in
  walk (List.tl (Array.to_list Sys.argv));
  (!json, !spans_out)

let () =
  let json_path, spans_out = parse_args () in
  let macro =
    counter_entries ~title:"Part 3: DPOR/Lin macro-bench (deterministic counters)"
      macro_configs
  in
  let detector_impl =
    counter_entries ~title:"Part 8: oracle vs implemented detectors (counters)"
      ~metric_names:detector_impl_counter_names detector_impl_configs
  in
  Wfde.Metrics.reset ();
  List.iter (fun e -> Wfde.Metrics.absorb e.macro_snap) (macro @ detector_impl);
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
               (json_document ~macro ~serve ~serve_tracing ~serve_cache
                  ~detector_impl));
          output_char oc '\n');
      Format.printf "wrote machine-readable results to %s@." path
