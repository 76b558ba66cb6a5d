(* The wfde benchmark executable. Run it through run.py, which builds it
   and calib.exe next to it; on its own:

     wfdebench.exe --workload W --seed N --seconds S --trace 0|1
     wfdebench.exe --capture FILE      (rewrite the reference)

   Workloads: msgpass, shm and check run passes over a fixed list of
   units in a seeded order until the time is spent; serve drives rounds
   against in-process daemons. With --trace 0 the run measures setup_s
   and prints the end-to-end metrics; with --trace 1 it runs one
   untraced and one traced leg over the same work and prints the
   per-layer metrics. The last line of stdout is one JSON object:
   correct, attempted, failed, metrics. *)

open Wfde

(* --------------------------------------------------------------- args *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  capture : string option;
}

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("wfdebench: " ^ m);
      exit 2)
    fmt

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        setup_only = false;
        capture = None;
      }
  in
  let int_arg k v =
    match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" k
  in
  let rec walk = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; walk rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_arg "--seed" v }; walk rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_int (int_arg "--seconds" v) }; walk rest
    | "--trace" :: v :: rest -> a := { !a with trace = int_arg "--trace" v <> 0 }; walk rest
    | "--setup-only" :: rest -> a := { !a with setup_only = true }; walk rest
    | "--capture" :: v :: rest -> a := { !a with capture = Some v }; walk rest
    | arg :: _ -> die "unknown argument %S" arg
  in
  walk (List.tl (Array.to_list Sys.argv));
  !a

(* ---------------------------------------------------------- reference *)

let digest text = Digest.to_hex (Digest.string text)

let reference_path = Filename.concat "wfdebench" "reference.txt"

let load_reference () =
  let tbl = Hashtbl.create 1024 in
  let ic = try open_in reference_path with Sys_error m -> die "no reference: %s" m in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ workload; key; d ] -> Hashtbl.replace tbl (workload ^ "\t" ^ key) d
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  tbl

let capture path =
  let lines = ref [] in
  let add workload key d = lines := String.concat "\t" [ workload; key; d ] :: !lines in
  List.iter
    (fun workload ->
      let units =
        Option.get (Units.for_workload ~rng:(Rng.create 0) workload)
      in
      List.iter
        (fun u ->
          let text, ok = u.Units.run Obs.Span.null in
          if not ok then die "capture: %s/%s claim failed" workload u.Units.name;
          add workload u.Units.name (digest text))
        units)
    Units.batch;
  List.iter (fun (k, d) -> add "serve" k d) (Serveload.reference ());
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (List.sort compare !lines);
  close_out oc;
  Printf.printf "wrote %d reference digests to %s\n" (List.length !lines) path

(* -------------------------------------------------------- measurement *)

let now = Unix.gettimeofday
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* Nearest-rank percentile; 0 on no samples. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fratio a b = if b = 0. then 0. else a /. b
let counter snap name = Option.value ~default:0 (Metrics.find_counter snap name)

let sum_prefix snap prefix =
  List.fold_left
    (fun acc (n, v) -> if String.starts_with ~prefix n then acc + v else acc)
    0 snap.Metrics.counters

let hist_mean snap name =
  match Metrics.find_histogram snap name with
  | Some h -> Metrics.hist_mean h
  | None -> 0.

let net_sent snap = sum_prefix snap "net.sent{" + sum_prefix snap "net.link.sent{"

(* Printed by --setup-only the moment the workload is ready; the
   spawning process reads it to measure setup_s. *)
let ready () = Printf.printf "ready %.6f\n%!" (now ())

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  metrics : metric list;
  attempted : int;
  failures : string list;
}

(* Every median of a timed run is taken over at least this many passes. *)
let min_passes = 3

(* Calls [f] until [seconds] are spent, and at least [min_passes] times;
   a further call starts only if one more is expected to end in time. *)
let repeat ~seconds f =
  let start = now () in
  let rec go acc =
    let t = now () in
    let acc = f () :: acc in
    let elapsed = now () -. start in
    if List.length acc < min_passes || elapsed +. (now () -. t) <= seconds then go acc
    else List.rev acc
  in
  go []

(* Runs [f] in a forked child, as a fresh process would run it, and
   returns what it returned over a pipe. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result =
        try (Marshal.from_channel ic : (_, string) Stdlib.result)
        with End_of_file -> Error "child process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      result

(* ---------------------------------------------------------- host speed *)

(* calib.exe's time on the 2-core Xeon VM where the benchmark was
   defined, in that host's fast state. End-to-end times are reported in
   seconds at this speed (see calib.ml and README.md). *)
let reference_speed_s = 0.025

(* The check workload runs two domains, which slow down more than one
   when the host is busy, so its probe runs two (see calib.ml). Its
   reference, 0.036 s, keeps check's times on the scale they had under
   the one-domain probe. *)
let probe_domains = ref 1
let probe_reference_s () = if !probe_domains = 1 then reference_speed_s else 0.036

let calib_exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe"

let probe_speed () =
  let ic =
    Unix.open_process_args_in calib_exe [| calib_exe; string_of_int !probe_domains |]
  in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some t when t > 0. -> t
  | _ -> die "host-speed probe %s failed" calib_exe

let probes = ref []
let last_probe = ref nan

(* Starts the chain of probes; call it right before the first timed
   piece of work. *)
let start_speed () =
  last_probe := probe_speed ();
  probes := [ !last_probe ]

(* Probes the host speed and returns the factor that scales the time of
   the work done since the previous probe to the reference speed: the
   reference over the mean of the probes on either side. *)
let rescale () =
  let p = probe_speed () in
  let k = probe_reference_s () /. ((!last_probe +. p) /. 2.) in
  last_probe := p;
  probes := p :: !probes;
  k

let print_probes () =
  let ps = !probes in
  Printf.printf "host-speed probe: %d probes, median %.4fs, range %.4f-%.4fs (reference %.4fs)\n"
    (List.length ps) (median ps) (List.fold_left min infinity ps)
    (List.fold_left max 0. ps) (probe_reference_s ())

(* ------------------------------------------------------ batch workloads *)

type pass = {
  wall : float;  (** scaled *)
  words : float;
  failed : string list;
}

let check_unit ~reference ~workload ~spans (u : Units.t) =
  let text, ok = u.run spans in
  if not ok then Some (u.name ^ ": claim failed")
  else if Hashtbl.find_opt reference (workload ^ "\t" ^ u.name) <> Some (digest text)
  then Some (u.name ^ ": output differs from the reference")
  else None

(* Every unit starts on a compacted heap, as it would in a fresh
   process: otherwise the garbage one unit leaves behind (a 3M-step
   trace is hundreds of MB) makes the next unit's time depend on the
   seeded order. Compaction is not timed. *)
let fresh_heap () = Gc.compact ()

let run_pass ~reference ~workload units =
  let w0 = minor_words () in
  start_speed ();
  let wall, failed =
    List.fold_left
      (fun (wall, failed) u ->
        fresh_heap ();
        let t = now () in
        let r = check_unit ~reference ~workload ~spans:Obs.Span.null u in
        let dt = now () -. t in
        (wall +. (dt *. rescale ()), match r with None -> failed | Some f -> f :: failed))
      (0., []) units
  in
  { wall; words = minor_words () -. w0; failed }

type isolated = {
  failure : string option;
  seconds : float;  (** scaled *)
  minor : float;  (** minor-heap words, all domains *)
  top_heap_words : int;
}

(* Each unit of the end-to-end leg runs in a forked child, as
   [wfde run <id>] runs in a fresh process: its time, allocation and
   peak heap then do not depend on what ran before it, in particular on
   the seeded order. The child times the unit alone. *)
let isolated ~reference ~workload (u : Units.t) =
  let r =
    match
      in_child (fun () ->
          let w0 = minor_words () and t0 = now () in
          let failure = check_unit ~reference ~workload ~spans:Obs.Span.null u in
          let seconds = now () -. t0 in
          {
            failure;
            seconds;
            minor = minor_words () -. w0;
            top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
          })
    with
    | Ok r -> r
    | Error e ->
        { failure = Some (u.name ^ ": " ^ e); seconds = 0.; minor = 0.; top_heap_words = 0 }
  in
  { r with seconds = r.seconds *. rescale () }

(* Passes over every unit, each in a fresh seeded order, until the time
   is spent. Each unit's figures are its medians over the passes;
   wall_s is their sum and the latency percentiles are taken over
   them. *)
let batch_e2e (a : args) ~reference ~rng units =
  start_speed ();
  let passes =
    repeat ~seconds:a.seconds (fun () ->
        List.map
          (fun (u : Units.t) -> (u.name, isolated ~reference ~workload:a.workload u))
          (Rng.permutation rng units))
  in
  let per_unit f =
    List.map
      (fun (u : Units.t) ->
        median (List.concat_map (fun p -> [ f (List.assoc u.name p) ]) passes))
      units
  in
  let walls = per_unit (fun r -> r.seconds) in
  List.iter2 (fun (u : Units.t) s -> Printf.printf "unit %s: %.3fs\n" u.name s) units walls;
  let wall = sum walls in
  let results = List.concat_map (List.map snd) passes in
  let top = List.fold_left max 0. (per_unit (fun r -> float_of_int r.top_heap_words)) in
  Printf.printf "%d passes of %d units\n" (List.length passes) (List.length units);
  print_probes ();
  {
    metrics =
      [
        m "wall_s" "s" wall;
        m "throughput_rps" "1/s" (fratio (float_of_int (List.length units)) wall);
        m "req_p95_ms" "ms" (1000. *. percentile 0.95 walls);
        m "alloc_mwords" "Mwords" (sum (per_unit (fun r -> r.minor)) /. 1e6);
        m "peak_heap_mb" "MB" (mb_of_words (int_of_float top));
      ];
    attempted = List.length results;
    failures = List.filter_map (fun r -> r.failure) results;
  }

let span_us (s : Obs.Span.t) = s.stop_us - s.start_us

(* Time inside the scenario checker and the world builder, measured by
   wrapping [Scenario.make] and driving it through [Dpor.explore]: one
   serial exploration of the first pattern of every clean check. *)
let lin_probe () =
  let make_ns = ref 0 and makes = ref 0 and lin_ns = ref 0 in
  List.iter
    (fun (c : Units.check_config) ->
      if c.mutant = None then begin
        let pattern = List.hd (Scenario.patterns c.obj ~procs:c.procs) in
        let make () =
          let t0 = Stepper.now_ns () in
          let fibers, check = Scenario.make c.obj ~procs:c.procs () in
          make_ns := !make_ns + (Stepper.now_ns () - t0);
          incr makes;
          let timed trace =
            let t0 = Stepper.now_ns () in
            let r = check trace in
            lin_ns := !lin_ns + (Stepper.now_ns () - t0);
            r
          in
          (fibers, timed)
        in
        ignore (Dpor.explore ~pattern ~depth:c.depth ~horizon:c.horizon ~make ())
      end)
    Units.check_configs;
  (float_of_int !lin_ns /. 1e6, fratio (float_of_int !make_ns /. 1e3) (float_of_int !makes))

let batch_traced (a : args) ~reference ~rng units =
  let order = Rng.permutation rng units in
  Metrics.reset ();
  let untraced = run_pass ~reference ~workload:a.workload order in
  let sa = Metrics.snapshot () in
  Metrics.reset ();
  let st = Stepper.create () in
  let spans = ref [] and unit_wall = ref 0. in
  let stepped_sent = ref 0 and stepped_delivered = ref 0 in
  let failed = ref [] in
  let traced_wall = ref 0. in
  List.iter
    (fun (u : Units.t) ->
      fresh_heap ();
      let t0 = now () in
      (match u.rebuild with
      | Some rebuild ->
          let s0 = Metrics.snapshot () in
          rebuild st;
          let s1 = Metrics.snapshot () in
          let delta p = sum_prefix s1 p - sum_prefix s0 p in
          stepped_sent := !stepped_sent + delta "net.sent{";
          stepped_delivered := !stepped_delivered + delta "net.delivered{"
      | None ->
          let scope = Obs.Span.make ~capacity:16_384 ~trace:u.name () in
          let t = now () in
          (match check_unit ~reference ~workload:a.workload ~spans:scope u with
          | Some f -> failed := f :: !failed
          | None -> ());
          unit_wall := !unit_wall +. (now () -. t);
          spans := Obs.Span.spans scope @ !spans);
      let dt = now () -. t0 in
      traced_wall := !traced_wall +. (dt *. rescale ()))
    order;
  let traced_wall = !traced_wall in
  let sb = Metrics.snapshot () in
  let lin_ms, make_us = if a.workload = "check" then lin_probe () else (0., 0.) in
  let equal_counts =
    List.filter_map
      (fun (name, f) ->
        let x = f sa and y = f sb in
        if x = y then None
        else Some (Printf.sprintf "traced leg diverged: %s %d untraced vs %d traced" name x y))
      [
        ("kernel.steps", fun s -> counter s "kernel.scheduler.steps");
        ("net.sent", net_sent);
        ("check.dpor.executions", fun s -> counter s "check.dpor.executions");
      ]
  in
  let span_ms pred =
    float_of_int
      (List.fold_left (fun acc s -> if pred s.Obs.Span.name then acc + span_us s else acc) 0 !spans)
    /. 1e3
  in
  let steps = counter sa "kernel.scheduler.steps" in
  let layer l = (st.Stepper.steps.(l), st.Stepper.ns.(l)) in
  let per_step l =
    let n, ns = layer l in
    fratio (float_of_int ns) (float_of_int n)
  in
  let exec_ms = span_ms (String.equal "dpor.executions") in
  let polls = fst (layer Stepper.net) - !stepped_sent in
  let abd_ops = counter sa "memory.abd.reads" + counter sa "memory.abd.writes" in
  let executions = counter sa "check.dpor.executions" in
  let step_ns =
    if Stepper.total_steps st > 0 then
      fratio (float_of_int (Stepper.total_ns st)) (float_of_int (Stepper.total_steps st))
    else fratio (exec_ms *. 1e6) (float_of_int steps)
  in
  Printf.printf "untraced leg %.3fs, traced leg %.3fs, %d stepped worlds' steps timed\n"
    untraced.wall traced_wall (Stepper.total_steps st);
  {
    metrics =
      [
        m "kernel.steps" "count" (float_of_int steps);
        m "kernel.step_ns" "ns" step_ns;
        m "kernel.minor_words_per_step" "words" (fratio untraced.words (float_of_int steps));
        m "kernel.useful_step_ratio" "ratio" (ratio st.useful st.executed);
        m "kernel.fiber.suspensions" "count" (float_of_int (counter sa "kernel.fiber.suspensions"));
        m "net.sent" "count" (float_of_int (net_sent sa));
        m "net.polls" "count" (float_of_int polls);
        m "net.delivered_per_poll" "ratio" (ratio !stepped_delivered polls);
        m "net.step_ns" "ns" (per_step Stepper.net);
        m "link.step_ns" "ns" (per_step Stepper.link);
        m "net.link.dropped" "count" (float_of_int (sum_prefix sa "net.link.dropped{"));
        m "net.link.delayed" "count" (float_of_int (sum_prefix sa "net.link.delayed{"));
        m "memory.register.ops" "count"
          (float_of_int (counter sa "memory.register.reads" + counter sa "memory.register.writes"));
        m "memory.register.step_ns" "ns" (per_step Stepper.register);
        m "memory.snapshot.scans" "count" (float_of_int (counter sa "memory.snapshot.scans"));
        m "memory.snapshot.rounds_per_scan" "rounds" (hist_mean sa "memory.snapshot.scan_rounds");
        m "memory.abd.ops" "count" (float_of_int abd_ops);
        m "memory.abd.op_steps" "steps" (hist_mean sa "memory.abd.op_latency");
        m "memory.abd.phases_per_op" "phases"
          (ratio
             (counter sa "memory.abd.query_phases" + counter sa "memory.abd.update_phases")
             abd_ops);
        m "detectors.queries" "count" (float_of_int (counter sa "detectors.queries"));
        m "detectors.query_ns" "ns" (per_step Stepper.detector);
        m "hb.heartbeats" "count" (float_of_int (sum_prefix sa "hb.heartbeats{"));
        m "hb.suspicions" "count" (float_of_int (sum_prefix sa "hb.suspicions{"));
        m "sim.decision_steps" "steps" (float_of_int st.useful);
        m "check.dpor.executions" "count" (float_of_int executions);
        m "check.dpor.races" "count" (float_of_int (counter sa "check.dpor.races"));
        m "check.dpor.backtrack_points" "count"
          (float_of_int (counter sa "check.dpor.backtrack_points"));
        m "check.dpor.deduped" "count" (float_of_int (counter sa "check.dpor.deduped"));
        m "check.dpor.sleep_blocked" "count" (float_of_int (counter sa "check.dpor.sleep_blocked"));
        m "check.dpor.useful_ratio" "ratio"
          (ratio (executions - counter sa "check.dpor.sleep_blocked") executions);
        m "check.dpor.exec_ms" "ms" exec_ms;
        m "check.dpor.race_ms" "ms" (span_ms (String.equal "dpor.race_analysis"));
        m "check.lin_ms" "ms" lin_ms;
        m "check.make_us" "us" make_us;
        m "check.shrink.replays" "count" (float_of_int (counter sa "check.shrink.replays"));
        m "check.shrink_ms" "ms" (span_ms (String.equal "check.shrink"));
        m "exec.pool.units" "count" (float_of_int (counter sa "exec.pool.units"));
        m "exec.pool.busy_ratio" "ratio"
          (if a.workload = "check" then
             fratio
               (span_ms (String.starts_with ~prefix:"dpor.p") /. 1e3)
               (float_of_int Units.check_jobs *. !unit_wall)
           else 0.);
        m "obs.trace_overhead_pct" "%" (100. *. fratio (traced_wall -. untraced.wall) untraced.wall);
      ];
    attempted = 2 * List.length order;
    failures = untraced.failed @ !failed @ st.failures @ equal_counts;
  }

(* ------------------------------------------------------- serve workload *)

let serve_clients = 2
let serve_workers = 2

(* Every round starts a daemon with a cold cache and sends requests
   0 .. round_requests - 1 of the seeded stream, so each round computes
   every distinct request once and answers the rest from the cache. *)
let round_requests = 4000

let with_daemon ?trace f =
  let dir = ".wfdebench" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let d = Serve.Daemon.start ~workers:serve_workers ?trace ~socket () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Daemon.stop d;
      if Sys.file_exists socket then Sys.remove socket;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (match Serve.Client.rpc ~socket (Serveload.health ()) with
      | Ok { Serve.Proto.result = Ok _; _ } -> ()
      | _ -> die "daemon did not answer health");
      f d socket)

(* What a round's child process reports: summaries only, so that the
   parent's heap, which every later child inherits, stays the same size
   from round to round. *)
type round = {
  requests : int;
  seconds : float;  (** scaled *)
  p50_ms : float;  (** scaled *)
  p95_ms : float;  (** scaled *)
  class_p95_ms : float array;  (** in [Serveload.classes] order; scaled *)
  class_requests : int array;
  answers : string;  (** digest of every (index, ok, payload digest) *)
  failures : string list;
  minor : float;
  top_heap_words : int;
  hits : int;
  misses : int;
  coalesced : int;
  queue_wait_p95_ms : float;  (** daemon spans, traced rounds only *)
  execute_p50_ms : float;
}

let serve_failures samples =
  List.filter_map
    (fun (s : Serveload.sample) ->
      if s.ok then None
      else Some (Printf.sprintf "request %d (%s) failed or mismatched" s.index (Serveload.class_name s.cls)))
    samples

(* Exec.Pool registers its exec.pool.* counters lazily, the first time
   a pool with more than one job finishes. When the daemon's two workers
   finish their first -j 2 checks at once, both force the same lazy value
   and one request fails with CamlinternalLazy.Undefined. A pool run
   before the daemon starts registers them, so the rounds measure the
   daemon rather than this start-up race (see README.md, Findings). *)
let register_pool_counters () = ignore (Exec.Pool.map (Exec.Pool.create ~jobs:2 ()) ~f:Fun.id 2)

(* One round in a forked child, so that each round starts from a fresh
   process and cache and its peak heap is its own. *)
let round ?(traced = false) ~seed ~reference () =
  let r =
    in_child (fun () ->
        register_pool_counters ();
        let sink =
          if traced then Some (Obs.Span.sink ~capacity:(16 * round_requests) ()) else None
        in
        with_daemon ?trace:sink (fun d socket ->
            let w0 = minor_words () and t0 = now () in
            let samples =
              Serveload.drive ~socket ~seed ~clients:serve_clients ~requests:round_requests
                ~traced ~reference
            in
            let seconds = now () -. t0 in
            let minor = minor_words () -. w0 in
            let c = Serve.Daemon.cache_stats d in
            let spans = match sink with Some s -> Obs.Span.take s | None -> [] in
            let span_ms name =
              List.filter_map
                (fun (s : Obs.Span.t) ->
                  if s.name = name then Some (float_of_int (span_us s) /. 1e3) else None)
                spans
            in
            let ms cls =
              List.filter_map
                (fun (s : Serveload.sample) ->
                  if cls = None || cls = Some s.cls then Some s.ms else None)
                samples
            in
            let classes = Serveload.classes in
            {
              requests = List.length samples;
              seconds;
              p50_ms = percentile 0.5 (ms None);
              p95_ms = percentile 0.95 (ms None);
              class_p95_ms = Array.map (fun c -> percentile 0.95 (ms (Some c))) classes;
              class_requests = Array.map (fun c -> List.length (ms (Some c))) classes;
              answers =
                digest
                  (Marshal.to_string
                     (List.sort compare
                        (List.map
                           (fun (s : Serveload.sample) -> (s.index, s.ok, s.answer))
                           samples))
                     []);
              failures = serve_failures samples;
              minor;
              top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
              hits = c.hits;
              misses = c.misses;
              coalesced = c.coalesced;
              queue_wait_p95_ms = percentile 0.95 (span_ms "queue_wait");
              execute_p50_ms = percentile 0.5 (span_ms "execute");
            }))
  in
  let k = rescale () in
  match r with
  | Ok r ->
      {
        r with
        seconds = r.seconds *. k;
        p50_ms = r.p50_ms *. k;
        p95_ms = r.p95_ms *. k;
        class_p95_ms = Array.map (fun x -> x *. k) r.class_p95_ms;
      }
  | Error e ->
      {
        requests = 0;
        seconds = 0.;
        p50_ms = 0.;
        p95_ms = 0.;
        class_p95_ms = Array.map (fun _ -> 0.) Serveload.classes;
        class_requests = Array.map (fun _ -> 0) Serveload.classes;
        answers = "";
        failures = [ "serve round: " ^ e ];
        minor = 0.;
        top_heap_words = 0;
        hits = 0;
        misses = 0;
        coalesced = 0;
        queue_wait_p95_ms = 0.;
        execute_p50_ms = 0.;
      }

let serve_lookup reference key = Hashtbl.find_opt reference ("serve\t" ^ key)
let requests rounds = List.fold_left (fun acc r -> acc + r.requests) 0 rounds
let failures rounds = List.concat_map (fun r -> r.failures) rounds

(* Each round's figures, then their median over the rounds. *)
let serve_e2e (a : args) ~reference =
  let reference = serve_lookup reference in
  start_speed ();
  let rounds = repeat ~seconds:a.seconds (round ~seed:a.seed ~reference) in
  let per_round f = median (List.map f rounds) in
  Printf.printf "%d rounds of %d requests: %d latency samples\n" (List.length rounds)
    round_requests (requests rounds);
  print_probes ();
  {
    metrics =
      [
        m "wall_s" "s" (per_round (fun r -> r.seconds));
        m "throughput_rps" "1/s" (per_round (fun r -> float_of_int r.requests /. r.seconds));
        m "req_p95_ms" "ms" (per_round (fun r -> r.p95_ms));
        m "alloc_mwords" "Mwords" (per_round (fun r -> r.minor) /. 1e6);
        m "peak_heap_mb" "MB" (per_round (fun r -> mb_of_words r.top_heap_words));
      ];
    attempted = requests rounds;
    failures = failures rounds;
  }

(* As many untraced rounds as fit in half the time, then as many traced
   rounds; every round sends the same requests, so every round must
   return the same payloads. *)
let serve_traced (a : args) ~reference =
  let reference = serve_lookup reference in
  start_speed ();
  let untraced = repeat ~seconds:(a.seconds /. 2.) (round ~seed:a.seed ~reference) in
  let traced =
    List.map (fun _ -> round ~traced:true ~seed:a.seed ~reference ()) untraced
  in
  let first = (List.hd untraced).answers in
  let diverged =
    if List.for_all (fun r -> r.answers = first) (untraced @ traced) then []
    else [ "rounds diverged: payloads differ between rounds" ]
  in
  let per_round rounds f = median (List.map f rounds) in
  let class_p95 i c =
    Printf.printf "class %s: %d requests a round\n" (Serveload.class_name c)
      (per_round untraced (fun r -> float_of_int r.class_requests.(i)) |> int_of_float);
    m ("serve.latency_ms.p95." ^ Serveload.class_name c) "ms"
      (per_round untraced (fun r -> r.class_p95_ms.(i)))
  in
  let cache f = List.fold_left (fun acc r -> acc + f r) 0 untraced in
  let hits = cache (fun r -> r.hits) and misses = cache (fun r -> r.misses) in
  let wall_a = sum (List.map (fun r -> r.seconds) untraced)
  and wall_b = sum (List.map (fun r -> r.seconds) traced) in
  Printf.printf "%d untraced rounds %.3fs, %d traced rounds %.3fs\n" (List.length untraced) wall_a
    (List.length traced) wall_b;
  {
    metrics =
      [
        m "serve.cache.hit_ratio" "ratio" (ratio hits (hits + misses));
        m "serve.cache.coalesced" "count" (float_of_int (cache (fun r -> r.coalesced)));
        m "serve.queue_wait_ms.p95" "ms" (per_round traced (fun r -> r.queue_wait_p95_ms));
        m "serve.execute_ms.p50" "ms" (per_round traced (fun r -> r.execute_p50_ms));
        m "serve.latency_ms.p50" "ms" (per_round untraced (fun r -> r.p50_ms));
      ]
      @ List.mapi class_p95 (Array.to_list Serveload.classes)
      @ [ m "obs.trace_overhead_pct" "%" (100. *. fratio (wall_b -. wall_a) wall_a) ];
    attempted = requests untraced + requests traced;
    failures = failures untraced @ failures traced @ diverged;
  }

(* ---------------------------------------------------------------- main *)

(* Every per-layer metric, so each traced run reports the full set; a
   layer a workload does not exercise reads 0 (see README.md). *)
let per_layer =
  [
    ("kernel.steps", "count"); ("kernel.step_ns", "ns");
    ("kernel.minor_words_per_step", "words"); ("kernel.useful_step_ratio", "ratio");
    ("kernel.fiber.suspensions", "count"); ("net.sent", "count"); ("net.polls", "count");
    ("net.delivered_per_poll", "ratio"); ("net.step_ns", "ns"); ("link.step_ns", "ns");
    ("net.link.dropped", "count"); ("net.link.delayed", "count");
    ("memory.register.ops", "count"); ("memory.register.step_ns", "ns");
    ("memory.snapshot.scans", "count"); ("memory.snapshot.rounds_per_scan", "rounds");
    ("memory.abd.ops", "count"); ("memory.abd.op_steps", "steps");
    ("memory.abd.phases_per_op", "phases"); ("detectors.queries", "count");
    ("detectors.query_ns", "ns"); ("hb.heartbeats", "count"); ("hb.suspicions", "count");
    ("sim.decision_steps", "steps"); ("check.dpor.executions", "count");
    ("check.dpor.races", "count"); ("check.dpor.backtrack_points", "count");
    ("check.dpor.deduped", "count"); ("check.dpor.sleep_blocked", "count");
    ("check.dpor.useful_ratio", "ratio"); ("check.dpor.exec_ms", "ms");
    ("check.dpor.race_ms", "ms"); ("check.lin_ms", "ms"); ("check.make_us", "us");
    ("check.shrink.replays", "count"); ("check.shrink_ms", "ms");
    ("exec.pool.units", "count"); ("exec.pool.busy_ratio", "ratio");
    ("serve.cache.hit_ratio", "ratio"); ("serve.cache.coalesced", "count");
    ("serve.queue_wait_ms.p95", "ms"); ("serve.execute_ms.p50", "ms");
    ("serve.latency_ms.p50", "ms");
    ("serve.latency_ms.p95.run", "ms"); ("serve.latency_ms.p95.check", "ms");
    ("serve.latency_ms.p95.check_mutant", "ms"); ("serve.latency_ms.p95.health", "ms");
    ("obs.trace_overhead_pct", "%");
  ]

let complete metrics =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) metrics with
      | Some x -> x
      | None -> m name unit_ 0.)
    per_layer

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let report a r =
  let metrics = if a.trace then complete r.metrics else r.metrics in
  List.iter (fun x -> Printf.printf "%s: %s = %.6g %s\n" a.workload x.name x.value x.unit_) metrics;
  List.iteri (fun i f -> if i < 20 then Printf.printf "FAILED %s\n" f) r.failures;
  Printf.printf "%s: ops_total = %d, ops_failed = %d\n" a.workload r.attempted
    (List.length r.failures);
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failures = []) r.attempted (List.length r.failures) (String.concat ", " fields);
  if r.failures <> [] then exit 1

(* setup_s: the median over [setup_spawns] fresh processes of the time
   from spawning this executable with --setup-only until it prints that
   the workload is ready, scaled to the reference speed. *)
let setup_spawns = 11

let setup_seconds (a : args) =
  let exe = Sys.executable_name in
  let argv =
    [| exe; "--workload"; a.workload; "--seed"; string_of_int a.seed; "--setup-only" |]
  in
  let spawn () =
    let t0 = now () in
    let ic = Unix.open_process_args_in exe argv in
    let rec ready_at () =
      match String.split_on_char ' ' (input_line ic) with
      | [ "ready"; t ] -> float_of_string_opt t
      | _ -> ready_at ()
      | exception End_of_file -> None
    in
    let at = ready_at () in
    match (Unix.close_process_in ic, at) with
    | Unix.WEXITED 0, Some t -> (t -. t0) *. rescale ()
    | _ -> die "set-up of %s failed" a.workload
  in
  start_speed ();
  median (List.init setup_spawns (fun _ -> spawn ()))

let () =
  let a = parse_args () in
  match a.capture with
  | Some path -> capture path
  | None ->
      let reference = load_reference () in
      let rng = Rng.create a.seed in
      if a.workload = "check" then probe_domains := Units.check_jobs;
      let run f =
        if a.trace then report a (f ())
        else
          let setup = setup_seconds a in
          let r = f () in
          report a { r with metrics = m "setup_s" "s" setup :: r.metrics }
      in
      if a.workload = "serve" then
        if a.setup_only then with_daemon (fun _ _ -> ready ())
        else run (fun () -> (if a.trace then serve_traced else serve_e2e) a ~reference)
      else
        match Units.for_workload ~rng a.workload with
        | None -> die "unknown workload %S (msgpass, shm, check, serve)" a.workload
        | Some units ->
            if a.setup_only then ready ()
            else
              run (fun () ->
                  (if a.trace then batch_traced else batch_e2e) a ~reference ~rng units)
