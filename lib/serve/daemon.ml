module J = Obs.Json
module M = Obs.Metrics

type t = {
  sock_path : string;
  listen_fd : Unix.file_descr;
  engine : Engine.t;
  cache : Cache.t;
  max_request_bytes : int;
  started_at : float;
  stopping : bool Atomic.t;
  conn_mu : Mutex.t;
  conn_cv : Condition.t;
  mutable conn_count : int;
  mutable accept_thread : Thread.t option;
  stop_mu : Mutex.t;
  mutable stopped : bool;
  (* The daemon-side registry is the main domain's, shared by every
     connection thread; Metrics is domain-local but not thread-safe, so
     all daemon-side metric traffic goes through this mutex. *)
  reg_mu : Mutex.t;
  (* Observability: spans flow into [trace_sink] (None = tracing off —
     the request path touches no clock or scope beyond one branch);
     requests slower than [slow_ms] log one structured JSON line to
     [slow_out] under [slow_mu]. *)
  trace_sink : Obs.Span.sink option;
  slow_ms : float option;
  slow_out : out_channel;
  slow_mu : Mutex.t;
}

(* ------------------------------------------------------- metrics ----- *)

let known_methods =
  [
    "run";
    "check";
    "sweep";
    "stats";
    "sleep";
    "health";
    "metrics";
    "cache";
  ]

let method_label m = if List.mem m known_methods then m else "other"

let with_registry t f =
  Mutex.lock t.reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg_mu) f

(* Log-spaced (HDR-style) bounds: 0.1ms .. 60s at 1-2-5 resolution, so
   one histogram keeps p50/p95/p99 readable for both a 200µs health
   check and a multi-second sweep. *)
let latency_buckets = M.log_buckets ~lo:0.1 ~hi:60_000. ()

let record_request t ~meth ~code ~wall_ms =
  with_registry t (fun () ->
      M.incr (M.counter (Printf.sprintf "serve.requests{method=%s}" (method_label meth)));
      M.incr (M.counter (Printf.sprintf "serve.responses{code=%s}" code));
      M.observe
        (M.histogram ~buckets:latency_buckets
           (Printf.sprintf "serve.latency_ms{method=%s}" (method_label meth)))
        wall_ms;
      M.set (M.gauge "serve.queue.depth") (float_of_int (Engine.queue_depth t.engine));
      M.set (M.gauge "serve.in_flight") (float_of_int (Engine.in_flight t.engine)))

(* Sampled when a job is accepted into the queue — every dispatch, from
   the conn thread (worker domains have their own DLS registry, so
   sampling there would be invisible to the daemon's snapshot). *)
let record_dispatch t =
  with_registry t (fun () ->
      let depth = Engine.queue_depth t.engine in
      let workers = Engine.workers t.engine in
      M.observe
        (M.histogram
           ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
           "serve.queue.depth_at_dispatch")
        (float_of_int depth);
      M.set (M.gauge "serve.dispatched")
        (float_of_int (Engine.dispatched t.engine));
      M.set
        (M.gauge "serve.worker.utilization")
        (float_of_int (Engine.in_flight t.engine) /. float_of_int workers))

(* Cache gauges (and the eviction counter, which the cache tracks
   internally) are synced from a stats snapshot; event counters are
   bumped one per lookup outcome. All under [reg_mu] like every other
   daemon-side metric. *)
let sync_cache_gauges_locked t =
  let s = Cache.stats t.cache in
  M.set (M.gauge "serve.cache.entries") (float_of_int s.Cache.entries);
  M.set (M.gauge "serve.cache.bytes") (float_of_int s.Cache.bytes);
  let ev = M.counter "serve.cache.evictions" in
  M.incr ~by:(max 0 (s.Cache.evictions - M.counter_value ev)) ev

let sync_cache_gauges t = with_registry t (fun () -> sync_cache_gauges_locked t)

let record_cache t ~event =
  with_registry t (fun () ->
      M.incr (M.counter (Printf.sprintf "serve.cache.%s" event));
      sync_cache_gauges_locked t)

let record_spans t ~exported ~dropped =
  if exported > 0 || dropped > 0 then
    with_registry t (fun () ->
        M.incr ~by:exported (M.counter "serve.spans.exported");
        if dropped > 0 then M.incr ~by:dropped (M.counter "serve.spans.dropped"))

let set_connections t n =
  with_registry t (fun () -> M.set (M.gauge "serve.connections") (float_of_int n))

(* ------------------------------------------------ inline handlers ---- *)

let health_json t =
  J.Obj
    [
      ("status", J.String (if Atomic.get t.stopping then "draining" else "ok"));
      ("workers", J.Int (Engine.workers t.engine));
      ("queue_depth", J.Int (Engine.queue_depth t.engine));
      ("queue_capacity", J.Int (Engine.queue_capacity t.engine));
      ("in_flight", J.Int (Engine.in_flight t.engine));
      ("dispatched", J.Int (Engine.dispatched t.engine));
      ("connections", J.Int t.conn_count);
      ("uptime_ms", J.Float ((Unix.gettimeofday () -. t.started_at) *. 1000.));
    ]

(* [metrics] takes no params and answers with the registry's JSON
   document. *)
let metrics_payload t = function
  | (k, _) :: _ ->
      Error (Proto.err Bad_request "unknown \"metrics\" parameter %S" k)
  | [] -> Ok (with_registry t (fun () -> M.to_json (M.snapshot ())))

(* [cache] accepts an optional {"op": "stats" | "clear"} param and
   answers with the stats snapshot (post-clear when clearing). Answered
   inline by the connection thread, like [health] and [metrics], so it
   works while the fleet is busy or draining. *)
let cache_payload t params =
  match List.filter (fun (k, _) -> k <> "op") params with
  | (k, _) :: _ -> Error (Proto.err Bad_request "unknown \"cache\" parameter %S" k)
  | [] -> (
      match List.assoc_opt "op" params with
      | None | Some (J.String "stats") -> Ok (Cache.stats_json t.cache)
      | Some (J.String "clear") ->
          Cache.clear t.cache;
          sync_cache_gauges t;
          Ok (Cache.stats_json t.cache)
      | Some _ ->
          Error (Proto.err Bad_request "\"op\" must be \"stats\" or \"clear\""))

let slow_log t ~trace ~id ~meth ~code ~wall_ms =
  match t.slow_ms with
  | Some threshold when wall_ms >= threshold ->
      let line =
        J.to_string
          (J.Obj
             [
               ("event", J.String "slow_request");
               ("ts", J.Float (Unix.gettimeofday ()));
               ("method", J.String meth);
               ("id", id);
               ( "trace",
                 match trace with Some tr -> J.String tr | None -> J.Null );
               ("code", J.String code);
               ("wall_ms", J.Float wall_ms);
               ("queue_depth", J.Int (Engine.queue_depth t.engine));
               ("in_flight", J.Int (Engine.in_flight t.engine));
             ])
      in
      Mutex.lock t.slow_mu;
      output_string t.slow_out (line ^ "\n");
      (try flush t.slow_out with Sys_error _ -> ());
      Mutex.unlock t.slow_mu
  | _ -> ()

(* ---------------------------------------------------- connection ----- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let k = Unix.write_substring fd s off (n - off) in
      go (off + k)
  in
  go 0

(* One request line -> one response line. Returns [false] when the
   peer is gone and the connection should close.

   Tracing: a request is traced when it carries a [trace] id AND the
   daemon has a sink — both off means the only cost is the [scope]
   branch below, and the response bytes are identical either way. The
   scope travels conn-thread -> worker -> conn-thread; the Ivar's
   mutex orders the handoffs, so it never has two concurrent writers. *)
(* The payload of a successful response: a cache hit (or the miss that
   populated it) carries already-rendered bytes; everything else is a
   JSON document rendered at response time. Splicing stored bytes via
   [Proto.ok_response_rendered] makes a replayed hit byte-identical to
   the response that populated it by construction. *)
type payload = Doc of J.t | Rendered of string

let deadline_of t ~t0 (req : Proto.request) =
  match req.deadline_ms with
  | None -> fun () -> false
  | Some ms ->
      (* a draining daemon cannot honor latency promises:
         deadline-bearing requests are cancelled at the next poll once
         drain begins, instead of holding the drain for work the
         client has budgeted *)
      let at = t0 +. (float_of_int ms /. 1000.) in
      fun () -> Unix.gettimeofday () > at || Atomic.get t.stopping

(* Submit one work request to the engine fleet and park on its Ivar. *)
let execute t ~(req : Proto.request) ~sc ~root ~t0 =
  let deadline = deadline_of t ~t0 req in
  let qid = Obs.Span.start ~parent:root sc "queue_wait" in
  let iv = Ivar.create () in
  let job () =
    Obs.Span.finish sc qid;
    let did = Obs.Span.start ~parent:root sc "dispatch" in
    let r =
      (* a request can spend its whole deadline queued *)
      if deadline () then begin
        Obs.Span.finish ~truncated:true sc did;
        Error (Proto.err Deadline_exceeded "deadline expired while queued")
      end
      else begin
        Obs.Span.finish sc did;
        let eid = Obs.Span.start ~parent:root sc "execute" in
        Obs.Span.set_parent sc eid;
        let r =
          try Service.handle ~deadline ~spans:sc req
          with e ->
            Error
              (Proto.err Internal "uncaught exception: %s"
                 (Printexc.to_string e))
        in
        let cut =
          match r with
          | Error { Proto.code = Proto.Deadline_exceeded; _ } -> true
          | _ -> false
        in
        Obs.Span.finish ~truncated:cut sc eid;
        Obs.Span.set_parent sc root;
        r
      end
    in
    Ivar.fill iv r
  in
  match Engine.submit t.engine job with
  | `Ok ->
      record_dispatch t;
      Ivar.read iv
  | `Queue_full ->
      Obs.Span.finish ~truncated:true sc qid;
      Error
        (Proto.err Queue_full "job queue is at capacity (%d); retry later"
           (Engine.queue_capacity t.engine))
  | `Draining ->
      Obs.Span.finish ~truncated:true sc qid;
      Error (Proto.err Shutting_down "daemon is draining")

(* Cache-first dispatch for run/check/sweep. The lookup happens before
   the [stopping] and queue checks, so hits are served from the
   connection thread even while the fleet is saturated or draining —
   only a miss pays the engine queue. Misses are single-flight: the
   leader computes via [execute], publishes the rendered bytes, and
   coalesced waiters reuse them verbatim. Errors are never cached. *)
let serve_cacheable t ~(req : Proto.request) ~sc ~root ~t0 =
  let lk0 = if Obs.Span.enabled sc then Obs.Span.now_us () else 0 in
  let cache_span name =
    if Obs.Span.enabled sc then
      ignore
        (Obs.Span.emit ~parent:root sc ~name ~start_us:lk0
           ~stop_us:(Obs.Span.now_us ()) ())
  in
  let key = Cache.key ~meth:req.meth ~params:req.params in
  match Cache.lookup t.cache ~key with
  | Cache.Hit payload ->
      cache_span "cache.hit";
      record_cache t ~event:"hits";
      Ok (Rendered payload)
  | Cache.Disk_hit payload ->
      cache_span "cache.disk_hit";
      record_cache t ~event:"disk_hits";
      Ok (Rendered payload)
  | Cache.Wait iv ->
      record_cache t ~event:"coalesced";
      let wid = Obs.Span.start ~parent:root sc "cache.coalesced" in
      let r = Ivar.read iv in
      Obs.Span.finish ~truncated:(Result.is_error r) sc wid;
      Result.map (fun p -> Rendered p) r
  | Cache.Compute ticket ->
      cache_span "cache.miss";
      record_cache t ~event:"misses";
      let computed =
        (* every exit path must resolve the ticket, or waiters hang *)
        if Atomic.get t.stopping then
          Error (Proto.err Shutting_down "daemon is draining; retry elsewhere")
        else
          match execute t ~req ~sc ~root ~t0 with
          | r -> Result.map J.to_string r
          | exception e ->
              Error
                (Proto.err Internal "uncaught exception: %s"
                   (Printexc.to_string e))
      in
      Cache.resolve t.cache ticket computed;
      sync_cache_gauges t;
      Result.map (fun p -> Rendered p) computed

let serve_line t fd line =
  let t0 = Unix.gettimeofday () in
  let t0_us = if t.trace_sink <> None then Obs.Span.now_us () else 0 in
  let wall_ms () = (Unix.gettimeofday () -. t0) *. 1000. in
  let meth_of = function Ok (r : Proto.request) -> r.meth | Error _ -> "invalid" in
  let parsed = Proto.parse_request ~max_bytes:t.max_request_bytes line in
  let parse_us = if t.trace_sink <> None then Obs.Span.now_us () else 0 in
  let scope = ref Obs.Span.null in
  let open_trace (req : Proto.request) =
    (match (t.trace_sink, req.trace) with
    | Some _, Some trace -> scope := Obs.Span.make ~trace ()
    | _ -> ());
    let sc = !scope in
    let root = Obs.Span.start ~parent:0 ~at:t0_us sc "request" in
    ignore
      (Obs.Span.emit ~parent:root sc ~name:"parse" ~start_us:t0_us
         ~stop_us:parse_us ());
    (sc, root)
  in
  let id, result =
    match parsed with
    | Error (e, id) -> (id, Error e)
    | Ok req -> (
        ( req.id,
          match req.meth with
          | "health" -> Ok (Doc (health_json t))
          | "metrics" ->
              Result.map (fun p -> Doc p) (metrics_payload t req.params)
          | "cache" -> Result.map (fun p -> Doc p) (cache_payload t req.params)
          | m when Cache.enabled t.cache && Cache.cacheable m ->
              let sc, root = open_trace req in
              serve_cacheable t ~req ~sc ~root ~t0
          | _ when Atomic.get t.stopping ->
              Error (Proto.err Shutting_down "daemon is draining; retry elsewhere")
          | _ ->
              let sc, root = open_trace req in
              Result.map (fun p -> Doc p) (execute t ~req ~sc ~root ~t0) ))
  in
  let scope = !scope in
  (* span 1 is always the root "request" span of an enabled scope *)
  let rid = Obs.Span.start ~parent:1 scope "render" in
  let wall_ms = wall_ms () in
  let code =
    match result with Ok _ -> "ok" | Error e -> Proto.code_to_string e.Proto.code
  in
  record_request t ~meth:(meth_of parsed) ~code ~wall_ms;
  slow_log t
    ~trace:(match parsed with Ok r -> r.Proto.trace | Error _ -> None)
    ~id ~meth:(meth_of parsed) ~code ~wall_ms;
  let body =
    match result with
    | Ok (Doc payload) -> J.to_string (Proto.ok_response ~id ~wall_ms payload)
    | Ok (Rendered payload) -> Proto.ok_response_rendered ~id ~wall_ms payload
    | Error e -> J.to_string (Proto.error_response ~id ~wall_ms e)
  in
  (* Spans are absorbed into the sink BEFORE the response bytes go out:
     a client that has received its reply may rely on the trace being
     exported already (the CI smoke job and tests do exactly that). *)
  if Obs.Span.enabled scope then begin
    Obs.Span.finish scope rid;
    let cut =
      match result with
      | Error { Proto.code = Proto.Deadline_exceeded; _ } -> true
      | _ -> false
    in
    (* span 1 is the root "request" span; close stragglers truncated *)
    Obs.Span.finish ~truncated:cut scope 1;
    Obs.Span.finish_open scope;
    (match t.trace_sink with
    | Some sink -> Obs.Span.absorb sink scope
    | None -> ());
    record_spans t
      ~exported:(List.length (Obs.Span.spans scope))
      ~dropped:(Obs.Span.dropped scope)
  end;
  match write_all fd (body ^ "\n") with
  | () -> true
  | exception Unix.Unix_error _ -> false

let conn_loop t fd =
  let pending = ref "" in
  let chunk = Bytes.create 8192 in
  let running = ref true in
  let take_line () =
    match String.index_opt !pending '\n' with
    | None -> None
    | Some i ->
        let line = String.sub !pending 0 i in
        pending := String.sub !pending (i + 1) (String.length !pending - i - 1);
        let line =
          if line <> "" && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        Some line
  in
  (try
     while !running do
       match take_line () with
       | Some "" -> () (* blank lines are keep-alives *)
       | Some line -> running := serve_line t fd line
       | None ->
           if Atomic.get t.stopping then running := false
           else if String.length !pending > t.max_request_bytes then begin
             (* refuse to buffer unboundedly while hunting a newline *)
             ignore
               (serve_line t fd
                  (String.sub !pending 0 (t.max_request_bytes + 1)));
             running := false
           end
           else begin
             match Unix.select [ fd ] [] [] 0.25 with
             | [], _, _ -> ()
             | _ ->
                 let n = Unix.read fd chunk 0 (Bytes.length chunk) in
                 if n = 0 then running := false
                 else pending := !pending ^ Bytes.sub_string chunk 0 n
           end
     done
   with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conn_mu;
  t.conn_count <- t.conn_count - 1;
  let n = t.conn_count in
  Condition.broadcast t.conn_cv;
  Mutex.unlock t.conn_mu;
  set_connections t n

(* -------------------------------------------------------- accept ----- *)

let accept_loop t =
  let rec go () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              if Atomic.get t.stopping then Unix.close fd
              else begin
                Mutex.lock t.conn_mu;
                t.conn_count <- t.conn_count + 1;
                let n = t.conn_count in
                Mutex.unlock t.conn_mu;
                set_connections t n;
                ignore (Thread.create (conn_loop t) fd)
              end
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      go ()
    end
  in
  go ()

(* ----------------------------------------------------- lifecycle ----- *)

let start ?workers ?queue_capacity ?(cache = Cache.default_config)
    ?(max_request_bytes = 1 lsl 20) ?trace ?slow_ms ?slow_out ~socket () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket);
     Unix.listen listen_fd 64
   with e ->
     Unix.close listen_fd;
     raise e);
  let t =
    {
      sock_path = socket;
      listen_fd;
      engine = Engine.start ?workers ?queue_capacity ();
      cache = Cache.create ~config:cache ();
      max_request_bytes;
      started_at = Unix.gettimeofday ();
      stopping = Atomic.make false;
      conn_mu = Mutex.create ();
      conn_cv = Condition.create ();
      conn_count = 0;
      accept_thread = None;
      stop_mu = Mutex.create ();
      stopped = false;
      reg_mu = Mutex.create ();
      trace_sink = trace;
      slow_ms;
      slow_out = Option.value ~default:stderr slow_out;
      slow_mu = Mutex.create ();
    }
  in
  (* Pre-register the cache metric family so the exposition carries
     every series from the first scrape, zeros included — a dashboard
     should not need a cache hit to learn the counter's name. *)
  if Cache.enabled t.cache then
    with_registry t (fun () ->
        List.iter
          (fun event ->
            ignore (M.counter (Printf.sprintf "serve.cache.%s" event)))
          [ "hits"; "misses"; "disk_hits"; "coalesced" ];
        sync_cache_gauges_locked t);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let queue_depth t = Engine.queue_depth t.engine
let in_flight t = Engine.in_flight t.engine
let dispatched t = Engine.dispatched t.engine
let draining t = Atomic.get t.stopping
let cache_stats t = Cache.stats t.cache

let stop t =
  Atomic.set t.stopping true;
  Mutex.lock t.stop_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.stop_mu)
    (fun () ->
      if not t.stopped then begin
        (match t.accept_thread with
        | Some th ->
            Thread.join th;
            t.accept_thread <- None
        | None -> ());
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        (try Unix.unlink t.sock_path with Unix.Unix_error _ -> ());
        (* connection threads notice [stopping] within one select tick,
           finish the request they are blocked on (its job still runs —
           the engine drains only after they are gone), and exit *)
        Mutex.lock t.conn_mu;
        while t.conn_count > 0 do
          Condition.wait t.conn_cv t.conn_mu
        done;
        Mutex.unlock t.conn_mu;
        Engine.drain t.engine;
        (match t.trace_sink with
        | Some sink -> Obs.Span.flush sink
        | None -> ());
        t.stopped <- true
      end)

let run_forever t =
  let requested = Atomic.make false in
  let on_signal _ = Atomic.set requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  while not (Atomic.get requested) do
    Unix.sleepf 0.1
  done;
  stop t
