(* Tests for the telemetry layer: metrics-registry semantics (counters,
   gauges, histograms, snapshot/reset), the hand-rolled JSON printer and
   parser, and the JSONL trace export — including the round-trip law
   [of_lines (to_lines t) = Ok t] and the replay guarantee that an
   exported schedule reproduces the original run. *)

open Kernel
module M = Obs.Metrics
module J = Obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* -- counters --------------------------------------------------------- *)

let test_counter () =
  M.reset ();
  let c = M.counter "test.obs.counter" in
  checki "initially zero" 0 (M.counter_value c);
  M.incr c;
  M.incr ~by:40 c;
  (* registration is idempotent: the same handle comes back *)
  M.incr (M.counter "test.obs.counter");
  checki "accumulated" 42 (M.counter_value c);
  checkb "snapshot sees it" true
    (M.find_counter (M.snapshot ()) "test.obs.counter" = Some 42)

let test_gauge_unset_until_set () =
  M.reset ();
  let g = M.gauge "test.obs.gauge" in
  checkb "unset gauge hidden from snapshot" true
    (M.find_gauge (M.snapshot ()) "test.obs.gauge" = None);
  M.set g 2.5;
  checkb "set gauge visible" true
    (M.find_gauge (M.snapshot ()) "test.obs.gauge" = Some 2.5);
  checkf "last write wins" 2.5 (M.gauge_value g)

let test_histogram_buckets () =
  M.reset ();
  let h = M.histogram ~buckets:[| 1.0; 10.0 |] "test.obs.hist" in
  M.observe h 0.5;
  (* on the bound counts in that bucket *)
  M.observe_int h 10;
  M.observe h 11.0;
  match M.find_histogram (M.snapshot ()) "test.obs.hist" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some v ->
      checkb "bucket counts" true (v.M.buckets = [ (1.0, 1); (10.0, 1) ]);
      checki "overflow" 1 v.M.overflow;
      checki "events" 3 v.M.events;
      checkf "sum" 21.5 v.M.sum;
      checkf "mean" (21.5 /. 3.0) (M.hist_mean v)

let test_reset_keeps_handles () =
  M.reset ();
  let c = M.counter "test.obs.reset" in
  let g = M.gauge "test.obs.reset_gauge" in
  let h = M.histogram "test.obs.reset_hist" in
  M.incr ~by:7 c;
  M.set g 1.0;
  M.observe h 3.0;
  M.reset ();
  checki "counter zeroed in place" 0 (M.counter_value c);
  checkb "gauge back to unset" true
    (M.find_gauge (M.snapshot ()) "test.obs.reset_gauge" = None);
  (match M.find_histogram (M.snapshot ()) "test.obs.reset_hist" with
  | Some v -> checki "histogram emptied" 0 v.M.events
  | None -> Alcotest.fail "histogram dropped by reset");
  (* the old handle still feeds the same registry entry *)
  M.incr c;
  checkb "post-reset increment lands" true
    (M.find_counter (M.snapshot ()) "test.obs.reset" = Some 1)

let test_type_clash_rejected () =
  M.reset ();
  ignore (M.counter "test.obs.clash");
  checkb "gauge on a counter name raises" true
    (try
       ignore (M.gauge "test.obs.clash");
       false
     with Invalid_argument _ -> true);
  checkb "histogram on a counter name raises" true
    (try
       ignore (M.histogram "test.obs.clash");
       false
     with Invalid_argument _ -> true)

(* -- json ------------------------------------------------------------- *)

let test_json_round_trip () =
  let doc =
    J.Obj
      [
        ("s", J.String "quote \" backslash \\ newline \n tab \t");
        ("i", J.Int (-42));
        ("f", J.Float 0.125);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.String "{p1, p3}"; J.Obj [] ]);
      ]
  in
  checkb "print/parse round-trips" true (J.of_string (J.to_string doc) = Ok doc)

let test_json_parser () =
  (match J.of_string {|{"a": [1, 2.5, "A\n"], "b": {"c": null}}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      checkb "int member" true
        (Option.bind (J.member "a" j) (fun l ->
             match l with J.List (x :: _) -> J.to_int x | _ -> None)
        = Some 1);
      checkb "unicode escape decoded" true
        (match J.member "a" j with
        | Some (J.List [ _; _; J.String s ]) -> s = "A\n"
        | _ -> false);
      checkb "nested null" true
        (Option.bind (J.member "b" j) (J.member "c") = Some J.Null));
  checkb "trailing garbage rejected" true
    (Result.is_error (J.of_string "{} extra"));
  checkb "unterminated string rejected" true
    (Result.is_error (J.of_string {|{"a": "oops}|}));
  checkb "non-finite floats print as null" true
    (J.to_string (J.Float Float.nan) = "null"
    && J.to_string (J.Float Float.infinity) = "null")

(* -- trace export ----------------------------------------------------- *)

let tricky_string =
  QCheck.Gen.(
    oneof
      [
        small_string ~gen:printable;
        oneofl
          [
            "";
            "a\"b";
            "back\\slash";
            "new\nline";
            "tab\there";
            "caf\xc3\xa9";
            "{p1, p3}";
            "t.cv.k2/main.r1.a1[0]";
          ];
      ])

let event_gen =
  QCheck.Gen.(
    let pid = map Pid.of_index (int_bound 7) in
    let time = int_bound 100_000 in
    let kind =
      oneof
        [
          map (fun obj -> Sim.Read { obj }) tricky_string;
          map (fun obj -> Sim.Write { obj }) tricky_string;
          map (fun detector -> Sim.Query { detector }) tricky_string;
          map2 (fun label value -> Sim.Output { label; value }) tricky_string
            tricky_string;
          map2 (fun label value -> Sim.Input { label; value }) tricky_string
            tricky_string;
          return Sim.Nop;
        ]
    in
    frequency
      [
        (1, map2 (fun pid time -> Trace.Crash { pid; time }) pid time);
        ( 6,
          pid >>= fun pid ->
          time >>= fun time ->
          kind >>= fun kind ->
          opt tricky_string >>= fun note ->
          let payload =
            match note with Some n -> Sim.Note n | None -> Sim.No_payload
          in
          return (Trace.Step { pid; time; kind; payload }) );
      ])

let trace_arb =
  QCheck.make
    ~print:(fun t -> String.concat "\n" (Trace_export.to_lines t))
    QCheck.Gen.(list_size (int_bound 40) event_gen)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:200 ~name:"trace JSONL round-trips" trace_arb (fun t ->
        Trace_export.of_lines (Trace_export.to_lines t) = Ok t);
    Test.make ~count:200 ~name:"json string literals round-trip" string
      (fun s ->
        J.of_string (J.to_string (J.String s)) = Ok (J.String s));
  ]

let test_of_lines_reports_bad_line () =
  match Trace_export.of_lines [ {|{"time":1,"pid":0,"kind":"nop"}|}; "{oops" ]
  with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error msg ->
      checkb "error names the line" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")

let test_save_load_file () =
  let path = Filename.temp_file "wfde_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let trace =
        [
          Trace.Step
            {
              pid = Pid.of_index 0;
              time = 3;
              kind = Sim.Query { detector = "upsilon" };
              payload = Sim.Note "{p1}";
            };
          Trace.Crash { pid = Pid.of_index 2; time = 9 };
        ]
      in
      Trace_export.save_file path trace;
      checkb "file round-trips" true (Trace_export.load_file path = Ok trace))

(* A full end-to-end replay: run Fig 1 under a random policy, export the
   trace, reload it, drive a fresh identical world with the loaded
   schedule — the replay must reproduce the trace (and so the
   decisions) exactly. *)

let fig1_run ~seed ~policy =
  let world = Wfde.Harness.random_world ~seed ~n_plus_1:3 ~max_faulty:2 () in
  let rng = Rng.create seed in
  let upsilon = Wfde.Upsilon.make ~rng ~pattern:world.Wfde.Harness.pattern () in
  let proto =
    Wfde.Upsilon_sa.create ~name:"t" ~n_plus_1:3 ~upsilon ()
  in
  snd
    (Testutil.exec_traced ~pattern:world.Wfde.Harness.pattern
       ~policy:(policy world) ~horizon:500_000
       ~procs:(fun pid ->
         [ Wfde.Upsilon_sa.proposer proto ~me:pid ~input:(100 + pid) ])
       ())

let test_exported_schedule_replays () =
  for seed = 1 to 5 do
    let original = fig1_run ~seed ~policy:(fun w -> w.Wfde.Harness.policy) in
    let loaded =
      match Trace_export.of_lines (Trace_export.to_lines original)
      with
      | Ok t -> t
      | Error e -> Alcotest.failf "seed %d: reload failed: %s" seed e
    in
    (* the live trace holds each query's value, the reloaded one its
       rendering: they must export to the same bytes *)
    Alcotest.(check (list string))
      "reload is exact"
      (Trace_export.to_lines original)
      (Trace_export.to_lines loaded);
    let replay =
      fig1_run ~seed ~policy:(fun _ ->
          Policy.script (Trace.schedule loaded)
            ~then_:(Policy.custom (fun ~now:_ ~enabled:_ -> None)))
    in
    checks
      (Printf.sprintf "seed %d replay reproduces the run" seed)
      (Format.asprintf "%a" Trace.pp original)
      (Format.asprintf "%a" Trace.pp replay);
    checkb "same decisions" true
      (Trace.outputs ~label:"decide" replay
      = Trace.outputs ~label:"decide" original)
  done

(* The [wfde trace --out] exports pinned byte for byte: each golden was
   written by the CLI, and running the setup [Harness.trace_setup]
   builds for its world through [Harness.run], with a [Trace.record]
   observer, then [Trace_export.save_file], must reproduce the file
   exactly. fig1 seed 13 has a gladiator whose Υ set is a
   singleton, so it runs 0-converge. *)
let golden_exports =
  [
    ("fig1_seed11.jsonl", "fig1", 11, 3, 1);
    ("fig1_seed13.jsonl", "fig1", 13, 3, 1);
    ("fig2_seed4.jsonl", "fig2", 4, 3, 1);
    ("fig2_seed9_p4_f2.jsonl", "fig2", 9, 4, 2);
    ("async_seed1.jsonl", "async", 1, 3, 1);
    ("async_seed2_p4.jsonl", "async", 2, 4, 1);
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A golden world run as [wfde trace] runs it, its trace kept by a
   builder next to any further [observers]. *)
let trace_golden ?(observers = []) (file, protocol, seed, n_plus_1, f) =
  match
    Wfde.Harness.trace_setup ~protocol ~seed ~n_plus_1 ~f ~limit:120
  with
  | None -> Alcotest.failf "%s: unknown protocol %s" file protocol
  | Some (_, setup, world) ->
      let kept = Trace.builder () in
      ignore
        (Wfde.Harness.run
           { setup with observers = Trace.record kept :: observers }
           world);
      (world, Trace.finish kept)

(* The skeleton runs [2 * limit] steps, as the async goldens (limit 120)
   pin, but never more than the figures' 500,000: a limit near
   [max_int] once overflowed the product to a negative horizon, which
   no run reaches. *)
let test_trace_async_horizon () =
  let horizon limit =
    match
      Wfde.Harness.trace_setup ~protocol:"async" ~seed:1 ~n_plus_1:3 ~f:1
        ~limit
    with
    | Some (_, setup, _) -> setup.Wfde.Harness.horizon
    | None -> Alcotest.fail "async is a trace protocol"
  in
  checki "limit 120" 240 (horizon 120);
  checki "limit 250,000" 500_000 (horizon 250_000);
  checki "limit 2^61" 500_000 (horizon (1 lsl 61));
  checki "limit max_int" 500_000 (horizon max_int)

let test_golden_exports () =
  List.iter
    (fun ((file, _, _, _, _) as golden) ->
      let _, trace = trace_golden golden in
      let path = Filename.temp_file "wfde_golden" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace_export.save_file path trace;
          checks file (read_file ("golden/" ^ file)) (read_file path)))
    golden_exports

(* The events an observer is passed are the trace the builder keeps:
   for every golden world, a plain list observer exports the same
   lines. *)
let test_golden_observer_stream () =
  List.iter
    (fun ((file, _, _, _, _) as golden) ->
      let seen = ref [] in
      let _, trace =
        trace_golden ~observers:[ (fun e -> seen := e :: !seen) ] golden
      in
      Alcotest.(check (list string))
        file
        (Trace_export.to_lines trace)
        (Trace_export.to_lines (List.rev !seen)))
    golden_exports

(* [trace_setup] returns the world the run uses: the printed pattern is the
   one the traced run crashes under, and no process steps at or after
   its crash time in it. *)
let test_trace_world_is_run_world () =
  List.iter
    (fun ((file, _, _, _, _) as golden) ->
      let world, trace = trace_golden golden in
      let pattern = world.Wfde.Harness.pattern in
      List.iter
        (fun v -> Alcotest.failf "%s: %a" file Oracle.pp_violation v)
        (Oracle.check_run_conditions pattern trace);
      List.iter
        (function
          | Trace.Crash { pid; time } ->
              checki (file ^ ": crash time") time
                (Failure_pattern.crash_time pattern pid)
          | Trace.Step _ -> ())
        trace;
      if file = "fig2_seed9_p4_f2.jsonl" then
        checks file "crashes[p3@146, p4@74](4 procs)"
          (Format.asprintf "%a" Failure_pattern.pp pattern))
    golden_exports

(* -- log buckets / quantiles ------------------------------------------ *)

let test_log_buckets () =
  checkb "1-2-5 series over the decades" true
    (M.log_buckets ~lo:1. ~hi:1000. ()
    = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]);
  let default = M.log_buckets () in
  checkb "defaults span 1ms..60s style ranges" true
    (Array.length default > 10
    && default.(0) = 0.001
    && default.(Array.length default - 1) <= 60_000.);
  let clipped = M.log_buckets ~lo:3. ~hi:40. () in
  checkb "clipping keeps only in-range bounds" true
    (clipped = [| 5.; 10.; 20. |]);
  checkb "monotone" true
    (let ok = ref true in
     Array.iteri
       (fun i b -> if i > 0 then ok := !ok && b > default.(i - 1))
       default;
     !ok);
  checkb "bad range rejected" true
    (try
       ignore (M.log_buckets ~lo:5. ~hi:1. ());
       false
     with Invalid_argument _ -> true)

let test_hist_quantile () =
  let hv =
    { M.buckets = [ (1., 2); (10., 6); (100., 2) ]; overflow = 0; sum = 0.; events = 10 }
  in
  checkb "median interpolates inside its bucket" true
    (M.hist_quantile hv 0.5 = Some 5.5);
  checkb "q0 clamps to rank 1" true (M.hist_quantile hv 0. = Some 0.5);
  checkb "q1 is the top of the last bucket" true
    (M.hist_quantile hv 1. = Some 100.);
  checkb "out-of-range q clamps" true
    (M.hist_quantile hv 2. = M.hist_quantile hv 1.);
  let empty = { M.buckets = [ (1., 0) ]; overflow = 0; sum = 0.; events = 0 } in
  checkb "empty is None" true (M.hist_quantile empty 0.5 = None);
  let over = { M.buckets = [ (1., 1) ]; overflow = 3; sum = 0.; events = 4 } in
  checkb "overflow resolves to the largest finite bound" true
    (M.hist_quantile over 0.99 = Some 1.)

(* -- prometheus exposition --------------------------------------------- *)

let test_prom_render () =
  let snap =
    {
      M.counters =
        [
          ("serve.requests{method=run}", 3);
          ("serve.requests{method=sweep}", 1);
          ("simple.count", 2);
        ];
      gauges = [ ("serve.in_flight", 2.) ];
      histograms =
        [
          ( "serve.latency_ms{method=run}",
            { M.buckets = [ (1., 1); (5., 2) ]; overflow = 1; sum = 12.5; events = 4 }
          );
        ];
    }
  in
  checks "exposition text"
    ("# TYPE wfde_serve_in_flight gauge\n\
      wfde_serve_in_flight 2\n\
      # TYPE wfde_serve_latency_ms histogram\n\
      wfde_serve_latency_ms_bucket{method=\"run\",le=\"1\"} 1\n\
      wfde_serve_latency_ms_bucket{method=\"run\",le=\"5\"} 3\n\
      wfde_serve_latency_ms_bucket{method=\"run\",le=\"+Inf\"} 4\n\
      wfde_serve_latency_ms_sum{method=\"run\"} 12.5\n\
      wfde_serve_latency_ms_count{method=\"run\"} 4\n\
      # TYPE wfde_serve_requests counter\n\
      wfde_serve_requests{method=\"run\"} 3\n\
      wfde_serve_requests{method=\"sweep\"} 1\n\
      # TYPE wfde_simple_count counter\n\
      wfde_simple_count 2\n")
    (Obs.Prom.render snap);
  checks "content type" "text/plain; version=0.0.4" Obs.Prom.content_type

let test_prom_live_registry () =
  (* render a real snapshot: a histogram built on log buckets must come
     out with cumulative monotone bucket counts and +Inf = _count *)
  M.reset ();
  let h =
    M.histogram ~buckets:(M.log_buckets ~lo:1. ~hi:100. ()) "test.prom.lat"
  in
  List.iter (M.observe h) [ 0.5; 3.; 42.; 800. ];
  let text = Obs.Prom.render (M.snapshot ()) in
  let lines = String.split_on_char '\n' text in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if String.length l > 24 && String.sub l 0 24 = "wfde_test_prom_lat_bucke" then
          String.rindex_opt l ' '
          |> Option.map (fun i ->
                 int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  checkb "has buckets" true (bucket_counts <> []);
  checkb "cumulative monotone" true
    (let ok = ref true and prev = ref 0 in
     List.iter
       (fun c ->
         if c < !prev then ok := false;
         prev := c)
       bucket_counts;
     !ok);
  checki "+Inf equals event count" 4
    (List.nth bucket_counts (List.length bucket_counts - 1))

(* -- one handle kind, domain-local values ----------------------------- *)

let m_shared = M.counter "test.obs.shared"

let test_one_handle_two_domains () =
  (* Both domains increment the module-level handle at once; each
     domain's own registry sees exactly its own increments. *)
  let n = 1_000_000 in
  let work () =
    for _ = 1 to n do
      M.incr m_shared
    done;
    M.find_counter (M.snapshot ()) "test.obs.shared"
  in
  let a = Domain.spawn work and b = Domain.spawn work in
  let ra = Domain.join a in
  let rb = Domain.join b in
  checkb "first domain reads its own count" true (ra = Some n);
  checkb "second domain reads its own count" true (rb = Some n);
  (* Back in the main domain the handle needs no rebinding: an increment
     allocates exactly what an empty body does. *)
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = words (fun () -> ()) in
  let incr = words (fun () -> M.incr m_shared) in
  checkf "main-domain increment allocates nothing" empty incr

let test_concurrent_registration () =
  (* Two domains register the same 200 fresh names at once: each name
     gets one slot, whichever domain came first, and nothing clashes. *)
  let names = List.init 200 (Printf.sprintf "test.obs.race.n%03d") in
  let register () = List.map M.counter names in
  let a = Domain.spawn register and b = Domain.spawn register in
  let ha = Domain.join a in
  let hb = Domain.join b in
  checkb "same slot for each name in both domains" true (ha = hb);
  checki "one slot per name" 200 (List.length (List.sort_uniq compare ha));
  M.reset ();
  List.iteri (fun i h -> M.incr ~by:(i + 1) h) ha;
  let s = M.snapshot () in
  checkb "each slot reads back under its own name" true
    (List.for_all
       (fun (i, name) -> M.find_counter s name = Some (i + 1))
       (List.mapi (fun i name -> (i, name)) names))

let test_fresh_domain_snapshot () =
  (* A name the main domain touched is not listed by a domain that never
     touched its handle. *)
  let c = M.counter "test.obs.main_only" in
  M.incr c;
  let listed =
    Domain.join
      (Domain.spawn (fun () ->
           M.find_counter (M.snapshot ()) "test.obs.main_only"))
  in
  checkb "fresh domain does not list it" true (listed = None);
  checkb "main domain still does" true
    (M.find_counter (M.snapshot ()) "test.obs.main_only" <> None)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "gauge unset until set" `Quick test_gauge_unset_until_set;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
    Alcotest.test_case "type clash rejected" `Quick test_type_clash_rejected;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "of_lines error position" `Quick
      test_of_lines_reports_bad_line;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
    Alcotest.test_case "exported schedule replays" `Quick
      test_exported_schedule_replays;
    Alcotest.test_case "golden trace exports" `Quick test_golden_exports;
    Alcotest.test_case "golden worlds: observer stream = kept trace" `Quick
      test_golden_observer_stream;
    Alcotest.test_case "trace world is the run's world" `Quick
      test_trace_world_is_run_world;
    Alcotest.test_case "trace: async horizon saturates" `Quick
      test_trace_async_horizon;
    Alcotest.test_case "log buckets (1-2-5 series)" `Quick test_log_buckets;
    Alcotest.test_case "histogram quantiles" `Quick test_hist_quantile;
    Alcotest.test_case "prometheus exposition" `Quick test_prom_render;
    Alcotest.test_case "prometheus from a live registry" `Quick
      test_prom_live_registry;
    Alcotest.test_case "one handle, two domains" `Quick
      test_one_handle_two_domains;
    Alcotest.test_case "concurrent registration" `Quick
      test_concurrent_registration;
    Alcotest.test_case "fresh domain lists only its own names" `Quick
      test_fresh_domain_snapshot;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
