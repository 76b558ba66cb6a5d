module J = Obs.Json

let never () = false

(* ------------------------------------------------ shared renderers --- *)

let with_buffer_formatter f =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let failed_of outcomes =
  List.filter (fun o -> not o.Wfde.Experiments.ok) outcomes

(* Every outcome's table, then the failed-claims line; [summary] adds
   the "all N hold" line [wfde run] prints when nothing failed. *)
let tables_text ~summary outcomes =
  with_buffer_formatter (fun ppf ->
      List.iter
        (fun o -> Format.fprintf ppf "%a@." Wfde.Experiments.pp o)
        outcomes;
      match failed_of outcomes with
      | [] ->
          if summary then
            Format.fprintf ppf "all %d experiment claims hold@."
              (List.length outcomes)
      | failed ->
          Format.fprintf ppf "FAILED claims: %s@."
            (String.concat ", "
               (List.map (fun (o : Wfde.Experiments.outcome) -> o.id) failed)))

let run_text = tables_text ~summary:true
let sweep_text = tables_text ~summary:false

let sweep_json ~jobs ~scale timed =
  let total = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 timed in
  J.Obj
    [
      ("schema", J.String "wfde-sweep/1");
      ("jobs", J.Int jobs);
      ("scale", J.Int scale);
      ("total_wall_seconds", J.Float total);
      ( "experiments",
        J.List
          (List.map
             (fun (id, o, w) ->
               J.Obj
                 [
                   ("id", J.String id);
                   ("ok", J.Bool o.Wfde.Experiments.ok);
                   ("wall_seconds", J.Float w);
                 ])
             timed) );
    ]

let check_text (o : Wfde.Harness.check_outcome) =
  with_buffer_formatter (fun ppf ->
      Format.fprintf ppf
        "%s: procs=%d depth=%d patterns=%d executions=%d (naive bound %d) \
         sleep-blocked=%d deduped=%d races=%d@."
        (Wfde.Scenario.to_string o.Wfde.Harness.check_obj)
        o.Wfde.Harness.check_procs o.Wfde.Harness.check_depth
        o.Wfde.Harness.patterns_swept o.Wfde.Harness.executions
        o.Wfde.Harness.naive_bound o.Wfde.Harness.sleep_blocked
        o.Wfde.Harness.deduped o.Wfde.Harness.races;
      match o.Wfde.Harness.violation with
      | None -> Format.fprintf ppf "no violation found@."
      | Some v ->
          Format.fprintf ppf "VIOLATION%s@.  crashes: %a@.  schedule: %s@.  %s@."
            (if v.Wfde.Harness.shrunk then " (shrunk, replayable)"
             else " (shrink failed to reproduce - raw counterexample)")
            Wfde.Failure_pattern.pp v.Wfde.Harness.cex_pattern
            (String.concat ","
               (List.map
                  (fun p -> string_of_int (Wfde.Pid.to_int p))
                  v.Wfde.Harness.cex_prefix))
            (String.concat "\n  "
               (String.split_on_char '\n' v.Wfde.Harness.cex_report)))

let unknown_ids ids =
  List.filter (fun id -> Wfde.Experiments.find id = None) ids

(* ------------------------------------------------ param validation --- *)

let bad fmt = Printf.ksprintf (fun m -> Error (Proto.err Bad_request "%s" m)) fmt

let ( let* ) = Result.bind

let check_allowed ~meth ~allowed params =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) params with
  | Some (k, _) -> bad "unknown %S parameter %S" meth k
  | None -> Ok ()

let get_int ~key ~default ~min ~max params =
  match List.assoc_opt key params with
  | None -> Ok default
  | Some (J.Int v) when v >= min && v <= max -> Ok v
  | Some _ -> bad "%S must be an integer in [%d, %d]" key min max

let get_string_opt ~key params =
  match List.assoc_opt key params with
  | None -> Ok None
  | Some (J.String s) -> Ok (Some s)
  | Some _ -> bad "%S must be a string" key

let get_ids params =
  match List.assoc_opt "experiments" params with
  | None -> Ok []
  | Some (J.List xs) -> (
      let rec strings acc = function
        | [] -> Ok (List.rev acc)
        | J.String s :: tl -> strings (s :: acc) tl
        | _ -> bad "\"experiments\" must be a list of id strings"
      in
      let* ids = strings [] xs in
      match unknown_ids ids with
      | [] -> Ok ids
      | unknown ->
          bad "unknown experiment id(s): %s (see 'wfde list')"
            (String.concat ", " unknown))
  | Some _ -> bad "\"experiments\" must be a list of id strings"

(* Service-side bounds are tighter than the CLI's: a request is a
   shared-daemon tenant, not the machine owner. *)
let max_scale = 1_000
let max_jobs = 16
let max_depth = 24
let max_horizon = 10_000_000
let max_procs = 8
let max_sleep_ms = 60_000

(* A request's experiments and the config they run under; the daemon
   always runs the oracle detectors. *)
let exp_params ~meth ~spans params =
  let* () =
    check_allowed ~meth ~allowed:[ "experiments"; "scale"; "jobs" ] params
  in
  let* ids = get_ids params in
  let* scale = get_int ~key:"scale" ~default:1 ~min:1 ~max:max_scale params in
  let* jobs = get_int ~key:"jobs" ~default:1 ~min:1 ~max:max_jobs params in
  Ok (ids, { Wfde.Experiments.scale; jobs; spans; detectors = Wfde.Harness.Oracle })

(* Run experiments left to right (every registry entry when [ids] is
   empty), polling the deadline before each so a timed-out request
   stops between drivers (the per-driver work is the cancellation
   granularity here). Each driver gets an [exp.<id>] child span. *)
let run_experiments ?(deadline = never) (config : Wfde.Experiments.config) ids =
  let ids =
    match ids with
    | [] ->
        List.map
          (fun (e : Wfde.Experiments.entry) -> e.id)
          Wfde.Experiments.registry
    | ids -> ids
  in
  let total = List.length ids in
  let rec go acc done_ = function
    | [] -> Ok (List.rev acc)
    | id :: rest ->
        if deadline () then
          Error
            (Proto.err Deadline_exceeded
               "deadline expired after %d of %d experiment(s)" done_ total)
        else
          let e = Option.get (Wfde.Experiments.find id) in
          let t0 = Unix.gettimeofday () in
          let o =
            (* the driver's own profile (d1-d3's [net.*] rows) nests
               under its [exp.<id>] span *)
            Obs.Span.with_ config.spans ("exp." ^ id) (fun () -> e.run config)
          in
          let wall = Unix.gettimeofday () -. t0 in
          go ((id, o, wall) :: acc) (done_ + 1) rest
  in
  go [] 0 ids

(* ------------------------------------------------------ handlers ----- *)

let handle_run ~deadline ~spans params =
  let* ids, config = exp_params ~meth:"run" ~spans params in
  let* timed = run_experiments ~deadline config ids in
  let outcomes = List.map (fun (_, o, _) -> o) timed in
  Ok
    (J.Obj
       [
         ("schema", J.String "wfde-run/1");
         ("ok", J.Bool (failed_of outcomes = []));
         ( "experiments",
           J.List
             (List.map
                (fun (o : Wfde.Experiments.outcome) ->
                  J.Obj [ ("id", J.String o.id); ("ok", J.Bool o.ok) ])
                outcomes) );
         ("output", J.String (run_text outcomes));
       ])

let handle_sweep ~deadline ~spans params =
  let* ids, config = exp_params ~meth:"sweep" ~spans params in
  let* timed = run_experiments ~deadline config ids in
  Ok (sweep_json ~jobs:config.jobs ~scale:config.scale timed)

let handle_stats ~deadline ~spans params =
  let* ids, config = exp_params ~meth:"stats" ~spans params in
  Wfde.Metrics.reset ();
  let* _timed = run_experiments ~deadline config ids in
  Ok (Wfde.Metrics.to_json (Wfde.Metrics.snapshot ()))

let handle_check ~deadline ~spans params =
  let* () =
    check_allowed ~meth:"check"
      ~allowed:[ "object"; "procs"; "depth"; "horizon"; "jobs"; "mutant" ]
      params
  in
  let* obj_name = get_string_opt ~key:"object" params in
  let* obj =
    match Wfde.Scenario.of_string (Option.value ~default:"register" obj_name) with
    | Ok o -> Ok o
    | Error msg -> bad "%s" msg
  in
  let* procs =
    match List.assoc_opt "procs" params with
    | None -> Ok None
    | Some (J.Int p) when p >= 1 && p <= max_procs -> Ok (Some p)
    | Some _ -> bad "\"procs\" must be an integer in [1, %d]" max_procs
  in
  let* depth = get_int ~key:"depth" ~default:6 ~min:1 ~max:max_depth params in
  let* horizon =
    get_int ~key:"horizon" ~default:400 ~min:1 ~max:max_horizon params
  in
  let* jobs = get_int ~key:"jobs" ~default:1 ~min:1 ~max:max_jobs params in
  let* mutant =
    let* name = get_string_opt ~key:"mutant" params in
    match name with
    | None -> Ok None
    | Some m -> (
        match Wfde.Mutant.of_string m with
        | Ok m -> Ok (Some m)
        | Error msg -> bad "%s" msg)
  in
  (* The cancelled flag is an Atomic because with jobs > 1 the probe
     runs on pool worker domains. *)
  let cancelled = Atomic.make false in
  let should_stop () =
    if deadline () then begin
      Atomic.set cancelled true;
      true
    end
    else false
  in
  let outcome =
    Wfde.Harness.check_exhaustive ~jobs ?procs ~depth ~horizon ~should_stop
      ~spans ?mutant obj
  in
  if Atomic.get cancelled then
    Error
      (Proto.err Deadline_exceeded
         "deadline expired after %d DPOR execution(s) over %d pattern(s)"
         outcome.Wfde.Harness.executions outcome.Wfde.Harness.patterns_swept)
  else Ok (Wfde.Harness.check_outcome_json outcome)

let handle_sleep ~deadline ~spans params =
  let* () = check_allowed ~meth:"sleep" ~allowed:[ "ms" ] params in
  let* ms = get_int ~key:"ms" ~default:0 ~min:0 ~max:max_sleep_ms params in
  let finish = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
  let sid = Obs.Span.start spans "sleep.wait" in
  let rec tick () =
    if deadline () then
      Error (Proto.err Deadline_exceeded "deadline expired while sleeping")
    else if Unix.gettimeofday () >= finish then Ok (J.Obj [ ("slept_ms", J.Int ms) ])
    else begin
      Unix.sleepf (min 0.01 (max 0. (finish -. Unix.gettimeofday ())));
      tick ()
    end
  in
  let r = tick () in
  Obs.Span.finish ~truncated:(Result.is_error r) spans sid;
  r

let handle ?(deadline = never) ?(spans = Obs.Span.null) (req : Proto.request) =
  let dispatch () =
    match req.meth with
    | "run" -> handle_run ~deadline ~spans req.params
    | "sweep" -> handle_sweep ~deadline ~spans req.params
    | "stats" -> handle_stats ~deadline ~spans req.params
    | "check" -> handle_check ~deadline ~spans req.params
    | "sleep" -> handle_sleep ~deadline ~spans req.params
    | "health" | "metrics" | "cache" ->
        Error
          (Proto.err Unknown_method
             "%S is answered by the daemon front-end, not the worker fleet"
             req.meth)
    | m -> Error (Proto.err Unknown_method "unknown method %S" m)
  in
  try dispatch ()
  with e ->
    Error (Proto.err Internal "uncaught exception: %s" (Printexc.to_string e))
