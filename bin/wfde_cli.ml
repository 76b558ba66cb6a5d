(* The wfde command-line interface.

     wfde run [EXPERIMENTS...] [--scale N] [-j N]   (also the default command)
     wfde list
     wfde trace --protocol fig1 --seed 7 --procs 4 [--limit 120] [--out F.jsonl]
     wfde stats [EXPERIMENTS...] [--scale N] [--json PATH]
     wfde sweep [EXPERIMENTS...] [-j N] [--scale N] [--json PATH]
     wfde serve --socket PATH [--workers N] [--queue N]
     wfde client METHOD --socket PATH [--params JSON] [--deadline-ms N]

   Experiments are the paper-claim tables of DESIGN.md (e1..e11, a1..a3,
   c1, d1..d3);
   trace replays one world and dumps the step-by-step run, including the
   values every detector query returned (or exports it as JSONL); stats
   runs experiments and dumps the telemetry registry they populated;
   serve/client are the wfde-rpc/1 daemon and its line client. *)

open Cmdliner

(* Integer options validated at parse time: a malformed or out-of-range
   value is a one-line usage error with a nonzero exit, never a raw
   exception out of the guts (Dpor raises on depth < 1, several
   experiment drivers on scale < 1, ...). *)
let bounded_int ~what ~min:lo ~max:hi =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo && v <= hi -> Ok v
    | Some _ | None ->
        Error
          (`Msg (Printf.sprintf "%s must be an integer in [%d, %d]" what lo hi))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A process set is one machine word: 63 processes on 64-bit hosts. *)
let max_procs = Wfde.Kernel.Pid.max_procs

(* Write [doc] to [path] when one was given and report it on [log];
   true when the write failed. *)
let write_json ~what ~log path doc =
  match path with
  | None -> false
  | Some path -> (
      match open_out path with
      | oc ->
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc (Wfde.Json.to_string doc);
              output_char oc '\n');
          Format.fprintf log "wrote %s JSON to %s@." what path;
          false
      | exception Sys_error msg ->
          Format.eprintf "cannot write %s JSON: %s@." what msg;
          true)

(* ------------------------------------------------------------- run --- *)

(* Experiment selection and execution shared with the daemon: unknown
   ids fail with one clean line, and payload-visible output goes
   through Serve.Service's renderers so 'wfde run' and a daemon 'run'
   request agree byte for byte. *)

(* Run [ids] under [config] with the daemon's runner, which cannot fail
   without a deadline, and pass [k] the (id, outcome, wall seconds)
   rows; unknown ids exit 2 first. *)
let with_experiments ids config k =
  match Serve.Service.unknown_ids ids with
  | [] -> k (Result.get_ok (Serve.Service.run_experiments config ids))
  | unknown ->
      Format.eprintf "unknown experiment id(s): %s (see 'wfde list')@."
        (String.concat ", " unknown);
      2

let outcomes timed = List.map (fun (_, o, _) -> o) timed

let run_ids ids config =
  with_experiments ids config (fun timed ->
      let outcomes = outcomes timed in
      print_string (Serve.Service.run_text outcomes);
      if List.for_all (fun o -> o.Wfde.Experiments.ok) outcomes then 0 else 1)

let ids_arg =
  let doc =
    "Experiments to run: e1..e11, a1..a3, c1, d1..d3. Runs everything \
     when omitted."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let scale_arg =
  let doc = "Multiply default seed counts / phase budgets by this factor." in
  Arg.(
    value
    & opt (bounded_int ~what:"--scale" ~min:1 ~max:1_000_000) 1
    & info [ "scale"; "s" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel sweep pool (clamped to 1-64). The \
     output is byte-identical at every value; only wall time changes."
  in
  Arg.(
    value
    & opt (bounded_int ~what:"--jobs" ~min:1 ~max:64) 1
    & info [ "jobs"; "j" ] ~docv:"J" ~doc)

(* Detector selection, shared by run/stats/check/sweep.
   [--detector-impl hb] swaps the oracle detectors for heartbeat
   implementations over a partially synchronous link whose config is
   built from [--gst]/[--loss] (remaining fields fixed so the same
   flags always name the same link). *)

let detector_impl_arg =
  let doc =
    "Detector implementation: $(b,oracle) (histories conjured from the \
     failure pattern; the default) or $(b,hb) (increasing-timeout \
     heartbeats over a partially synchronous link). With $(b,hb), \
     run/sweep/stats add the gated implemented-detector rows to e5/e11, \
     and check defaults its object to the heartbeat-detector scenario."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("oracle", false); ("hb", true) ]) false
    & info [ "detector-impl" ] ~docv:"IMPL" ~doc)

let gst_arg =
  let doc =
    "Global stabilization time of the simulated link (in scheduler \
     steps): before it messages may be delayed or dropped, from it on \
     delivery is reliable and timely. Only meaningful with \
     $(b,--detector-impl hb)."
  in
  Arg.(
    value
    & opt (bounded_int ~what:"--gst" ~min:0 ~max:1_000_000) 40
    & info [ "gst" ] ~docv:"N" ~doc)

let loss_arg =
  let doc =
    "Pre-GST message-loss percentage of the simulated link. Only \
     meaningful with $(b,--detector-impl hb)."
  in
  Arg.(
    value
    & opt (bounded_int ~what:"--loss" ~min:0 ~max:100) 50
    & info [ "loss" ] ~docv:"P" ~doc)

let detectors heartbeat gst loss =
  if not heartbeat then Wfde.Harness.Oracle
  else
    Wfde.Harness.Heartbeat
      { Wfde.Link.gst; delta = 2; pre_delay = (gst + 3) / 4; loss_pct = loss; link_seed = 7 }

let detectors_term =
  Term.(const detectors $ detector_impl_arg $ gst_arg $ loss_arg)

(* How run, stats, sweep and the default command run their
   experiments. *)
let config_term =
  let config scale jobs detectors =
    { Wfde.Experiments.scale; jobs; spans = Wfde.Obs.Span.null; detectors;
      deadline = Fun.const false }
  in
  Term.(const config $ scale_arg $ jobs_arg $ detectors_term)

let run_cmd =
  let doc = "run experiments (the default command)" in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run_ids $ ids_arg $ config_term)

(* ------------------------------------------------------------- list --- *)

let list_experiments () =
  List.iter
    (fun (e : Wfde.Experiments.entry) ->
      Format.printf "%-4s %s@." e.id e.description)
    Wfde.Experiments.registry;
  0

let list_cmd =
  let doc = "list every experiment id and the claim it regenerates" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_experiments $ const ())

(* ------------------------------------------------------------ trace --- *)

let dump_trace protocol seed n_plus_1 f limit out =
  if protocol = "fig2" && f >= n_plus_1 then (
    Format.eprintf "--faulty must be below --procs (got %d and %d)@." f n_plus_1;
    2)
  else
  match Wfde.Harness.trace_setup ~protocol ~seed ~n_plus_1 ~f ~limit with
  | None ->
      Format.eprintf "unknown protocol %S (expected fig1, fig2, or async)@."
        protocol;
      2
  | Some (description, setup, world) -> (
      (* [emit i e] prints or writes the i-th event as it happens; the
         run keeps only the count and the decisions *)
      let run emit =
        let n = ref 0 and decisions = ref [] in
        let observe e =
          emit !n e;
          incr n;
          match e with
          | Wfde.Trace.Step
              { pid; time; kind = Wfde.Sim.Output { label = "decide"; value }; _ }
            ->
              decisions := (pid, time, value) :: !decisions
          | _ -> ()
        in
        ignore (Wfde.Harness.run { setup with observers = [ observe ] } world);
        (!n, List.rev !decisions)
      in
      match out with
      | Some path -> (
          let export oc _ e =
            output_string oc
              (Wfde.Json.to_string (Wfde.Trace_export.json_of_event e) ^ "\n")
          in
          match Out_channel.with_open_text path (fun oc -> run (export oc)) with
          | events, _ ->
              Format.printf "%s@.wrote %d events to %s@." description events
                path;
              0
          | exception Sys_error msg ->
              Format.eprintf "cannot write trace: %s@." msg;
              1)
      | None ->
          Format.printf "%s@.world: %a@.@." description Wfde.Failure_pattern.pp
            world.Wfde.Harness.pattern;
          let total, decisions =
            run (fun i e ->
                if i < limit then Format.printf "%a@." Wfde.Trace.pp_event e)
          in
          if total > limit then
            Format.printf "... (%d more events)@." (total - limit);
          Format.printf "@.decisions:@.";
          List.iter
            (fun (pid, t, v) ->
              Format.printf "  t=%-6d %a decided %s@." t Wfde.Pid.pp pid v)
            decisions;
          0)

let trace_cmd =
  let protocol_arg =
    let doc = "Protocol to trace: fig1, fig2, or async." in
    Arg.(value & opt string "fig1" & info [ "protocol"; "p" ] ~docv:"P" ~doc)
  in
  let seed_arg =
    Arg.(
      value
      & opt (bounded_int ~what:"--seed" ~min:0 ~max:max_int) 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"World seed.")
  in
  let n_arg =
    Arg.(
      value
      & opt (bounded_int ~what:"--procs" ~min:2 ~max:max_procs) 3
      & info [ "n"; "procs" ] ~docv:"N+1" ~doc:"Number of processes.")
  in
  let f_arg =
    Arg.(
      value
      & opt (bounded_int ~what:"--faulty" ~min:1 ~max:(max_procs - 1)) 1
      & info [ "f"; "faulty" ] ~docv:"F" ~doc:"Resilience (fig2 only).")
  in
  let limit_arg =
    Arg.(
      value
      & opt (bounded_int ~what:"--limit" ~min:0 ~max:max_int) 120
      & info [ "limit" ] ~docv:"K" ~doc:"Print at most K events.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Export the full trace as JSONL (one event per line) to $(docv) \
             instead of printing it; reload with Trace_export.load_file.")
  in
  let doc = "replay one world and dump its step-by-step trace" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const dump_trace $ protocol_arg $ seed_arg $ n_arg $ f_arg $ limit_arg
      $ out_arg)

(* ------------------------------------------------------------ stats --- *)

let run_stats ids config json_path format =
  Wfde.Metrics.reset ();
  with_experiments ids config (fun timed ->
      let outcomes = outcomes timed in
      let failed = List.filter (fun o -> not o.Wfde.Experiments.ok) outcomes in
      let names sep os =
        String.concat sep (List.map (fun (o : Wfde.Experiments.outcome) -> o.id) os)
      in
      let snap = Wfde.Metrics.snapshot () in
      (match format with
      | `Prom -> print_string (Wfde.Obs.Prom.render snap)
      | `Table ->
          let title =
            Printf.sprintf "telemetry after %d experiment(s): %s"
              (List.length outcomes) (names " " outcomes)
          in
          Format.printf "%s@."
            (Wfde.Report.to_string (Wfde.Report.of_metrics ~title snap)));
      let json_failed =
        write_json ~what:"metrics" ~log:Format.std_formatter json_path
          (Wfde.Metrics.to_json snap)
      in
      if json_failed then 1
      else if failed = [] then 0
      else begin
        Format.printf "FAILED claims: %s@." (names ", " failed);
        1
      end)

let stats_cmd =
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the metrics snapshot as a JSON document to $(docv).")
  in
  let format_arg =
    let doc =
      "Output format: $(b,table) (the human report) or $(b,prom) \
       (Prometheus text exposition 0.0.4, the same body the daemon's \
       metrics method returns with format=prom)."
    in
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("prom", `Prom) ]) `Table
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let doc =
    "run experiments and dump the telemetry-registry counters they populated"
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run_stats $ ids_arg $ config_term $ json_arg $ format_arg)

(* ------------------------------------------------------------ check --- *)

let run_check obj_name procs depth horizon jobs mutant_name detectors json_path
    =
  let fail msg =
    Format.eprintf "%s@." msg;
    2
  in
  let obj =
    (* --detector-impl hb picks the heartbeat-detector scenario over the
       flag-built link unless --object names something explicitly *)
    match (obj_name, detectors) with
    | None, Wfde.Harness.Heartbeat cfg -> Ok (Wfde.Scenario.Hb_detector cfg)
    | None, Wfde.Harness.Oracle -> Wfde.Scenario.of_string "register"
    | Some name, _ -> Wfde.Scenario.of_string name
  in
  match obj with
  | Error msg -> fail msg
  | Ok obj -> (
      let mutant =
        match mutant_name with
        | None -> Ok None
        | Some m ->
            Result.map Option.some (Wfde.Scenario.mutant_of_string obj m)
      in
      match mutant with
      | Error msg -> fail msg
      | Ok mutant -> (
          let outcome =
            Wfde.Harness.check_exhaustive ~jobs ?procs ~depth ~horizon
              ?mutant obj
          in
          (* rendered by Serve.Service, like the run and sweep output *)
          print_string (Serve.Service.check_text outcome);
          let json_failed =
            write_json ~what:"check outcome" ~log:Format.std_formatter
              json_path
              (Wfde.Harness.check_outcome_json outcome)
          in
          let found = outcome.Wfde.Harness.violation <> None in
          (* with a planted mutant the expectation inverts: finding the
             bug is the success criterion *)
          let expected = match mutant with Some _ -> found | None -> not found in
          if json_failed then 1 else if expected then 0 else 1))

let check_cmd =
  let obj_arg =
    let doc =
      "Object to check: register, snapshot, abd, commit-adopt, \
       hb-detector, or link-chaos (default register; the two link-layer \
       scenarios also accept an inline config, e.g. \
       $(b,hb-detector(gst=12,delta=2,pre_delay=6,loss=50,seed=3)))."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "object"; "obj" ] ~docv:"OBJ" ~doc)
  in
  let procs_arg =
    let doc =
      "Number of processes (clamped up to the scenario's minimum; default 2)."
    in
    Arg.(
      value
      & opt (some (bounded_int ~what:"--procs" ~min:1 ~max:max_procs)) None
      & info [ "procs"; "n" ] ~docv:"N+1" ~doc)
  in
  let depth_arg =
    let doc = "Schedule-choice window: explore every class of the first $(docv) steps." in
    Arg.(
      value
      & opt (bounded_int ~what:"--depth" ~min:1 ~max:64) 6
      & info [ "depth"; "d" ] ~docv:"D" ~doc)
  in
  let horizon_arg =
    let doc = "Step budget per execution (completes runs past the window)." in
    Arg.(
      value
      & opt (bounded_int ~what:"--horizon" ~min:1 ~max:100_000_000) 400
      & info [ "horizon" ] ~docv:"H" ~doc)
  in
  let mutant_arg =
    let doc =
      "Plant a bug first: abd-skip-write-back, snapshot-single-collect, \
       converge-drop-phase2, hb-timeout-never-increased, or \
       hb-suspected-not-restored. Exit 0 then means 'caught'."
    in
    Arg.(value & opt (some string) None & info [ "mutant" ] ~docv:"M" ~doc)
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the outcome as a JSON document to $(docv).")
  in
  let doc = "model-check a shared object under every schedule class" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Explores every Mazurkiewicz class of depth-bounded schedule \
         prefixes with optimal dynamic partial-order reduction (source \
         sets and wakeup trees), \
         checking linearizability (Wing-Gong) or agreement on each \
         executed run, sweeping the scenario's failure patterns. A found \
         counterexample is ddmin-shrunk and confirmed by script replay. \
         Without --mutant, exit 0 means no violation; with --mutant, exit \
         0 means the planted bug was caught.";
    ]
  in
  Cmd.v (Cmd.info "check" ~doc ~man)
    Term.(
      const run_check $ obj_arg $ procs_arg $ depth_arg $ horizon_arg
      $ jobs_arg $ mutant_arg $ detectors_term $ json_arg)

(* ------------------------------------------------------------ sweep --- *)

(* Timed experiment sweep. Tables go to stdout and are byte-identical at
   every -j (the determinism contract of Exec.Pool); wall-clock timings
   go to stderr and the optional JSON document, which are the only
   places nondeterminism is allowed to show. *)

let run_sweep ids (config : Wfde.Experiments.config) json_path =
  with_experiments ids config (fun timed ->
      (* tables (and the failed-claims line, when any) come from the
         same renderer the daemon's sweep payload embeds *)
      print_string (Serve.Service.sweep_text (outcomes timed));
      let total = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 timed in
      List.iter (fun (id, _, w) -> Format.eprintf "%-4s %8.3fs@." id w) timed;
      Format.eprintf "%-4s %8.3fs (jobs=%d)@." "all" total config.jobs;
      let json_failed =
        write_json ~what:"sweep" ~log:Format.err_formatter json_path
          (Serve.Service.sweep_json ~jobs:config.jobs ~scale:config.scale
             timed)
      in
      if json_failed || List.exists (fun (_, o, _) -> not o.Wfde.Experiments.ok) timed
      then 1
      else 0)

let sweep_cmd =
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write a wfde-sweep/1 JSON document (per-experiment wall times) \
             to $(docv).")
  in
  let doc = "run experiments on the parallel pool and time each one" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the selected experiments (all of them by default) with their \
         independent work units sharded over $(b,--jobs) worker domains. \
         Tables print to stdout and are byte-identical at every $(b,-j) \
         value; per-experiment wall-clock timings print to stderr and to \
         the $(b,--json) document, which are the only outputs allowed to \
         vary between runs.";
    ]
  in
  Cmd.v (Cmd.info "sweep" ~doc ~man)
    Term.(const run_sweep $ ids_arg $ config_term $ json_arg)

(* ------------------------------------------------------------ serve --- *)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(
    value
    & opt string "/tmp/wfde.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let run_serve socket workers queue_capacity cache_capacity cache_dir trace_out
    slow_ms =
  match
    Option.map
      (fun path ->
        match open_out path with
        | oc -> oc
        | exception Sys_error msg -> failwith msg)
      trace_out
  with
  | exception Failure msg ->
      Format.eprintf "cannot open --trace-out: %s@." msg;
      1
  | trace_chan -> (
      let trace =
        Option.map (fun oc -> Wfde.Obs.Span.sink ~out:oc ()) trace_chan
      in
      let close_trace () = Option.iter close_out trace_chan in
      match
        Serve.Daemon.start ?trace
          ?slow_ms:(Option.map float_of_int slow_ms)
          ~cache:{ Serve.Cache.capacity = cache_capacity; dir = cache_dir }
          ~workers ~queue_capacity ~socket ()
      with
      | t ->
          (* the readiness line CI and scripts wait for *)
          Format.printf
            "wfde serve: listening on %s (workers=%d queue=%d cache=%d%s%s)@."
            socket workers queue_capacity cache_capacity
            (match cache_dir with
            | None -> ""
            | Some d -> Printf.sprintf " cache-dir=%s" d)
            (match trace_out with
            | None -> ""
            | Some p -> Printf.sprintf " trace-out=%s" p);
          Serve.Daemon.run_forever t;
          close_trace ();
          Format.printf "wfde serve: drained, bye@.";
          0
      | exception Unix.Unix_error (e, _, arg) ->
          close_trace ();
          Format.eprintf "cannot listen on %s: %s %s@." socket
            (Unix.error_message e) arg;
          1)

let serve_cmd =
  let workers_arg =
    let doc = "Worker domains executing requests." in
    Arg.(
      value
      & opt (bounded_int ~what:"--workers" ~min:1 ~max:64) 2
      & info [ "workers" ] ~docv:"W" ~doc)
  in
  let queue_arg =
    let doc = "Bounded job-queue capacity; a full queue rejects with queue_full." in
    Arg.(
      value
      & opt (bounded_int ~what:"--queue" ~min:1 ~max:4096) 64
      & info [ "queue" ] ~docv:"Q" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Enable request tracing and append wfde-span/1 JSONL (one span per \
       line) to $(docv). Only requests that carry a trace id are traced; \
       render the file with $(b,wfde spans)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let slow_ms_arg =
    let doc =
      "Log one structured slow_request JSON line to stderr for every \
       request that takes at least $(docv) milliseconds."
    in
    Arg.(
      value
      & opt (some (bounded_int ~what:"--slow-ms" ~min:0 ~max:86_400_000)) None
      & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let cache_arg =
    let doc =
      "In-memory result-cache capacity (entries) for run/check/sweep \
       responses; 0 disables caching."
    in
    Arg.(
      value
      & opt (bounded_int ~what:"--cache" ~min:0 ~max:1_000_000) 256
      & info [ "cache" ] ~docv:"N" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Back the result cache with a content-addressed store under \
       $(docv) (created if missing; entries survive daemon restarts)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let doc = "run the wfde-rpc/1 daemon on a Unix-domain socket" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves newline-delimited JSON requests (run, check, sweep, stats, \
         sleep, health, metrics) over a Unix-domain socket. Work executes \
         on a bounded worker fleet: a full queue rejects immediately with \
         a structured queue_full error, per-request deadline_ms cancels \
         cooperatively, and SIGTERM/SIGINT drain gracefully (in-flight \
         and queued requests complete; new ones are refused). Payloads \
         are byte-identical to the matching CLI output.";
      `P
        "With $(b,--trace-out), requests carrying a trace id export a \
         span tree (accept/parse/queue/dispatch/execute/render plus \
         method-specific children) as wfde-span/1 JSONL; with \
         $(b,--slow-ms), requests at least that slow log one structured \
         JSON line to stderr. Neither changes response payload bytes.";
      `P
        "run/check/sweep responses are served through a content-addressed \
         result cache ($(b,--cache) entries in memory, optionally \
         persisted under $(b,--cache-dir)); hits replay the stored bytes \
         from the connection thread, bypassing the worker fleet. Inspect \
         or clear it with $(b,wfde client cache) (params \
         {\"op\":\"stats\"}, the default, or {\"op\":\"clear\"}).";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run_serve $ socket_arg $ workers_arg $ queue_arg $ cache_arg
      $ cache_dir_arg $ trace_out_arg $ slow_ms_arg)

(* ----------------------------------------------------------- client --- *)

let run_client meth socket params_json id deadline_ms trace envelope =
  let params =
    match params_json with
    | None -> Ok []
    | Some s -> (
        match Wfde.Json.of_string s with
        | Ok (Wfde.Json.Obj kvs) -> Ok kvs
        | Ok _ -> Error "--params must be a JSON object"
        | Error e -> Error (Printf.sprintf "--params is not valid JSON: %s" e))
  in
  match params with
  | Error msg ->
      Format.eprintf "%s@." msg;
      2
  | Ok params -> (
      let req =
        {
          Serve.Proto.id =
            (match id with None -> Wfde.Json.Null | Some s -> Wfde.Json.String s);
          meth;
          params;
          deadline_ms;
          trace;
        }
      in
      match Serve.Client.rpc ~socket req with
      | Error msg ->
          Format.eprintf "transport error: %s@." msg;
          3
      | Ok resp -> (
          if envelope then begin
            let doc =
              match resp.Serve.Proto.result with
              | Ok payload ->
                  Serve.Proto.ok_response ~id:resp.Serve.Proto.resp_id
                    ~wall_ms:resp.Serve.Proto.wall_ms payload
              | Error e ->
                  Serve.Proto.error_response ~id:resp.Serve.Proto.resp_id
                    ~wall_ms:resp.Serve.Proto.wall_ms e
            in
            print_string (Wfde.Json.to_string doc);
            print_newline ()
          end;
          match resp.Serve.Proto.result with
          | Ok payload ->
              if not envelope then begin
                print_string (Wfde.Json.to_string payload);
                print_newline ()
              end;
              0
          | Error e ->
              if not envelope then
                Format.eprintf "%s: %s@."
                  (Serve.Proto.code_to_string e.Serve.Proto.code)
                  e.Serve.Proto.message;
              (* distinguishable failures for scripts: 124 deadline,
                 75 queue_full/backpressure, 1 everything else *)
              Serve.Proto.exit_code e.Serve.Proto.code))

let client_cmd =
  let meth_arg =
    let doc =
      "Method to call: run, check, sweep, stats, sleep, health, metrics, \
       or cache."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"METHOD" ~doc)
  in
  let params_arg =
    let doc = "Method parameters as a JSON object." in
    Arg.(
      value & opt (some string) None & info [ "params" ] ~docv:"JSON" ~doc)
  in
  let id_arg =
    let doc = "Request id, echoed back in the envelope." in
    Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline in milliseconds." in
    Arg.(
      value
      & opt (some (bounded_int ~what:"--deadline-ms" ~min:1 ~max:86_400_000)) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let trace_arg =
    let doc =
      "Trace id attached to the request; a daemon started with \
       $(b,--trace-out) exports the request's span tree under this id."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"ID" ~doc)
  in
  let envelope_arg =
    let doc =
      "Print the full wfde-rpc/1 envelope instead of just the payload."
    in
    Arg.(value & flag & info [ "envelope" ] ~doc)
  in
  let doc = "send one request to a running wfde daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects to the daemon's Unix socket, sends one request, prints \
         the payload JSON on stdout (exit 0), a structured server error \
         on stderr, or a transport error (exit 3). With $(b,--envelope) \
         the whole response envelope prints instead. Because daemon \
         payloads are byte-identical to CLI output, 'wfde client sweep \
         --params ...' and 'wfde sweep --json -' style pipelines can be \
         diffed directly.";
      `P
        "Server errors exit with distinguishable codes: 124 for \
         deadline_exceeded (the timeout(1) convention), 75 for \
         queue_full (EX_TEMPFAIL: retry later), 1 for everything else.";
      `S Manpage.s_examples;
      `Pre
        "  wfde client health --socket /tmp/wfde.sock\n\
        \  wfde client run --params '{\"experiments\":[\"e1\"]}'\n\
        \  wfde client check --params '{\"object\":\"abd\",\"procs\":3}' \
         --deadline-ms 30000\n\
        \  wfde client run --trace t1 --params '{\"experiments\":[\"e1\"]}'\n\
        \  wfde client metrics --params '{\"format\":\"prom\"}'";
    ]
  in
  Cmd.v (Cmd.info "client" ~doc ~man)
    Term.(
      const run_client $ meth_arg $ socket_arg $ params_arg $ id_arg
      $ deadline_arg $ trace_arg $ envelope_arg)

(* ------------------------------------------------------------ spans --- *)

let run_spans file normalize =
  match Wfde.Obs.Span.load_file file with
  | Error msg ->
      Format.eprintf "cannot load %s: %s@." file msg;
      2
  | Ok spans ->
      print_string (Wfde.Obs.Span.render ~normalize spans);
      0

let spans_cmd =
  let file_arg =
    let doc = "A wfde-span/1 JSONL file (see 'wfde serve --trace-out')." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let normalize_arg =
    let doc =
      "Omit timestamps: print only the span structure (names, nesting, \
       truncation), which is deterministic — two exports of the same \
       request mix diff clean."
    in
    Arg.(value & flag & info [ "normalize" ] ~doc)
  in
  let doc = "render an exported span file as per-trace profile trees" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads wfde-span/1 JSONL and prints one flame-style tree per \
         trace: spans nested under their parents in creation order, \
         each with its total wall time and self time (total minus \
         children). Truncated spans — cut by a deadline, a drain, or a \
         request error — are marked.";
      `S Manpage.s_examples;
      `Pre
        "  wfde serve --socket /tmp/wfde.sock --trace-out /tmp/spans.jsonl &\n\
        \  wfde client run --trace t1 --params '{\"experiments\":[\"e1\"]}'\n\
        \  kill -TERM %1 && wait\n\
        \  wfde spans /tmp/spans.jsonl";
    ]
  in
  Cmd.v (Cmd.info "spans" ~doc ~man)
    Term.(const run_spans $ file_arg $ normalize_arg)

(* ------------------------------------------------------------ group --- *)

let group =
  let doc =
    "reproduce the results of 'On the weakest failure detector ever'"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the experiment suite of this reproduction of Guerraoui, \
         Herlihy, Kuznetsov, Lynch and Newport (PODC'07 / Distributed \
         Computing 2009): the Upsilon-based set-agreement protocols \
         (Figures 1-2), the stable-detector-to-Upsilon^f extraction \
         (Figure 3), the pairwise detector reductions, the Theorem 1/5 \
         adversary, and the Omega_n consensus booster, each validated \
         against the paper's claims on a simulated asynchronous \
         shared-memory system.";
      `S Manpage.s_examples;
      `Pre
        "  wfde run e1 e5\n  wfde run --scale 4\n  wfde list\n\
        \  wfde run e5 e11 d1 d2 --detector-impl hb --gst 60 --loss 40\n\
        \  wfde check --detector-impl hb --gst 12 --loss 50 --depth 5 \
         --procs 2\n\
        \  wfde trace -p fig2 --seed 9 --procs 4 --faulty 2\n\
        \  wfde trace -p fig1 --seed 7 --out /tmp/fig1.jsonl\n\
        \  wfde stats e1 e7 --json /tmp/metrics.json\n\
        \  wfde check --object abd --procs 3 --depth 10\n\
        \  wfde check --object abd --procs 3 --depth 8 -j 4\n\
        \  wfde check --object snapshot --procs 3 --depth 12 \
         --mutant snapshot-single-collect --json /tmp/cex.json\n\
        \  wfde sweep e1 e2 -j 4 --json /tmp/sweep.json";
    ]
  in
  let default = Term.(const run_ids $ ids_arg $ config_term) in
  Cmd.group ~default
    (Cmd.info "wfde" ~version:"1.0.0" ~doc ~man)
    [
      run_cmd;
      list_cmd;
      trace_cmd;
      stats_cmd;
      check_cmd;
      sweep_cmd;
      serve_cmd;
      client_cmd;
      spans_cmd;
    ]

let () = exit (Cmd.eval' group)
