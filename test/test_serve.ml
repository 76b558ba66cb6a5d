(* Tests for the service subsystem: protocol encode/parse, the bounded
   job queue, engine backpressure and drain, service payload contracts
   (byte-identical to the CLI renderers), cooperative deadlines with
   slot reclaim, and the daemon end to end — including the determinism
   regression (same request serial, concurrent, and direct must yield
   byte-identical payloads), graceful drain, and the result cache
   (cold/warm/disk byte-identity, single-flight coalescing, hits under
   saturation and drain, the cache RPC, metrics, and spans), also
   through the [wfde serve], [client] and [cache] commands of a daemon
   child process. *)

module J = Obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains = Testutil.contains
let temp_socket = Testutil.temp_socket
let temp_dir () = Testutil.temp_dir ~prefix:"wfde-test-cache" ()
let rm_rf = Testutil.rm_rf
let eventually = Testutil.eventually

(* -- proto ------------------------------------------------------------- *)

let test_proto_roundtrip () =
  let req =
    {
      Serve.Proto.id = J.String "r1";
      meth = "check";
      params = [ ("object", J.String "abd"); ("depth", J.Int 4) ];
      deadline_ms = Some 250;
      trace = Some "trace-9";
    }
  in
  let line = J.to_string (Serve.Proto.request_to_json req) in
  match Serve.Proto.parse_request ~max_bytes:65536 line with
  | Error _ -> Alcotest.fail "roundtrip parse failed"
  | Ok r ->
      checks "method" "check" r.Serve.Proto.meth;
      checkb "id" true (r.Serve.Proto.id = J.String "r1");
      checkb "deadline" true (r.Serve.Proto.deadline_ms = Some 250);
      checkb "trace" true (r.Serve.Proto.trace = Some "trace-9");
      checki "params" 2 (List.length r.Serve.Proto.params);
      (* a trace-less request stays trace-less: the field is optional
         and absent from the wire when None *)
      let bare = { req with Serve.Proto.trace = None } in
      let line = J.to_string (Serve.Proto.request_to_json bare) in
      checkb "no trace key when None" true (not (contains line "trace"));
      match Serve.Proto.parse_request ~max_bytes:65536 line with
      | Ok r -> checkb "absent trace is None" true (r.Serve.Proto.trace = None)
      | Error _ -> Alcotest.fail "trace-less request must parse"

let test_proto_errors () =
  let parse = Serve.Proto.parse_request ~max_bytes:100 in
  let code_of = function
    | Error (e, _) -> Serve.Proto.code_to_string e.Serve.Proto.code
    | Ok _ -> "ok"
  in
  checks "oversized" "oversized" (code_of (parse (String.make 101 'x')));
  checks "bad json" "bad_request" (code_of (parse "{nope"));
  checks "non-object" "bad_request" (code_of (parse "[1,2]"));
  checks "unknown field" "bad_request"
    (code_of (parse {|{"method":"run","bogus":1}|}));
  checks "missing method" "bad_request" (code_of (parse {|{"id":"x"}|}));
  checks "bad deadline" "bad_request"
    (code_of (parse {|{"method":"run","deadline_ms":-5}|}));
  checks "empty trace" "bad_request"
    (code_of (parse {|{"method":"run","trace":""}|}));
  checks "non-string trace" "bad_request"
    (code_of (parse {|{"method":"run","trace":7}|}));
  (* the id survives into the error so the response can correlate *)
  (match parse {|{"id":"r9","method":"run","bogus":1}|} with
  | Error (_, id) -> checkb "salvaged id" true (id = J.String "r9")
  | Ok _ -> Alcotest.fail "expected error");
  match parse {|{"method":"run"}|} with
  | Ok r -> checkb "absent id is Null" true (r.Serve.Proto.id = J.Null)
  | Error _ -> Alcotest.fail "minimal request must parse"

let test_proto_response_roundtrip () =
  let ok_line =
    J.to_string
      (Serve.Proto.ok_response ~id:(J.Int 7) ~wall_ms:1.5
         (J.Obj [ ("x", J.Int 1) ]))
  in
  (match Serve.Proto.parse_response ok_line with
  | Ok { Serve.Proto.resp_id; result = Ok payload; _ } ->
      checkb "id" true (resp_id = J.Int 7);
      checkb "payload" true (payload = J.Obj [ ("x", J.Int 1) ])
  | _ -> Alcotest.fail "ok roundtrip failed");
  let err_line =
    J.to_string
      (Serve.Proto.error_response ~id:J.Null ~wall_ms:0.1
         (Serve.Proto.err Queue_full "full"))
  in
  (match Serve.Proto.parse_response err_line with
  | Ok { Serve.Proto.result = Error e; _ } ->
      checkb "code" true (e.Serve.Proto.code = Serve.Proto.Queue_full);
      checks "message" "full" e.Serve.Proto.message
  | _ -> Alcotest.fail "error roundtrip failed");
  checkb "garbage rejected" true
    (Result.is_error (Serve.Proto.parse_response "{}"))

(* Satellite: the cache serves pre-rendered payload strings, spliced
   into the envelope by [ok_response_rendered] — its bytes must equal
   rendering the equivalent document, or hits and misses would differ. *)
let test_proto_rendered_response () =
  List.iter
    (fun (id, wall_ms, payload) ->
      let expected =
        J.to_string (Serve.Proto.ok_response ~id ~wall_ms payload)
      in
      checks "rendered splice = document render" expected
        (Serve.Proto.ok_response_rendered ~id ~wall_ms (J.to_string payload)))
    [
      (J.Int 7, 1.5, J.Obj [ ("x", J.Int 1) ]);
      ( J.String "r1",
        0.0,
        J.Obj [ ("nested", J.Obj [ ("a", J.List [ J.Int 1; J.Null ]) ]) ] );
      (J.Null, 3.0, J.List []);
      (J.String "quoted \"id\"\n", 0.125, J.String "payload\twith\tescapes");
      (J.Int (-2), 0.0625, J.Bool false);
    ]

let test_proto_exit_codes () =
  let code = Serve.Proto.exit_code in
  checki "deadline_exceeded is timeout(1)" 124 (code Serve.Proto.Deadline_exceeded);
  checki "queue_full is EX_TEMPFAIL" 75 (code Serve.Proto.Queue_full);
  checki "bad_request" 1 (code Serve.Proto.Bad_request);
  checki "unknown_method" 1 (code Serve.Proto.Unknown_method);
  checki "oversized" 1 (code Serve.Proto.Oversized);
  checki "shutting_down" 1 (code Serve.Proto.Shutting_down);
  checki "internal" 1 (code Serve.Proto.Internal)

(* -- ivar / jobq ------------------------------------------------------- *)

let test_ivar () =
  let iv = Serve.Ivar.create () in
  checkb "unfilled peek" true (Serve.Ivar.peek iv = None);
  let reader = Thread.create (fun () -> Serve.Ivar.read iv) () in
  Serve.Ivar.fill iv 42;
  Thread.join reader;
  checki "read" 42 (Serve.Ivar.read iv);
  checkb "double fill raises" true
    (match Serve.Ivar.fill iv 43 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_jobq_order_and_bounds () =
  let q = Serve.Jobq.create ~capacity:2 in
  checki "capacity" 2 (Serve.Jobq.capacity q);
  checkb "push 1" true (Serve.Jobq.try_push q 1 = `Ok);
  checkb "push 2" true (Serve.Jobq.try_push q 2 = `Ok);
  checkb "push 3 full" true (Serve.Jobq.try_push q 3 = `Full);
  checki "depth" 2 (Serve.Jobq.length q);
  checkb "pop fifo" true (Serve.Jobq.pop q = Some 1);
  checkb "room again" true (Serve.Jobq.try_push q 4 = `Ok);
  Serve.Jobq.close q;
  Serve.Jobq.close q;
  checkb "push after close" true (Serve.Jobq.try_push q 5 = `Closed);
  (* close drains: queued items still come out, then None *)
  checkb "drain 2" true (Serve.Jobq.pop q = Some 2);
  checkb "drain 4" true (Serve.Jobq.pop q = Some 4);
  checkb "closed and empty" true (Serve.Jobq.pop q = None)

(* -- engine ------------------------------------------------------------ *)

let test_engine_runs_jobs () =
  let e = Serve.Engine.start ~workers:2 ~queue_capacity:8 () in
  let ivs = List.init 6 (fun _ -> Serve.Ivar.create ()) in
  List.iteri
    (fun i iv ->
      checkb "submitted" true
        (Serve.Engine.submit e (fun () -> Serve.Ivar.fill iv (i * i)) = `Ok))
    ivs;
  List.iteri (fun i iv -> checki "result" (i * i) (Serve.Ivar.read iv)) ivs;
  Serve.Engine.drain e

let test_engine_backpressure () =
  (* one worker held on a gate, capacity-1 queue: the third submit must
     be an immediate [`Queue_full], and releasing the gate lets the
     queued job complete *)
  let e = Serve.Engine.start ~workers:1 ~queue_capacity:1 () in
  let gate = Serve.Ivar.create () in
  let queued = Serve.Ivar.create () in
  checkb "blocker accepted" true
    (Serve.Engine.submit e (fun () -> Serve.Ivar.read gate) = `Ok);
  eventually "worker picked up the blocker" (fun () ->
      Serve.Engine.in_flight e = 1);
  checkb "queued accepted" true
    (Serve.Engine.submit e (fun () -> Serve.Ivar.fill queued true) = `Ok);
  checki "queue depth" 1 (Serve.Engine.queue_depth e);
  checkb "overflow rejected" true
    (Serve.Engine.submit e (fun () -> ()) = `Queue_full);
  Serve.Ivar.fill gate ();
  checkb "queued job ran after release" true (Serve.Ivar.read queued);
  Serve.Engine.drain e

let test_engine_drain_completes_queued () =
  let e = Serve.Engine.start ~workers:1 ~queue_capacity:4 () in
  let gate = Serve.Ivar.create () in
  let queued = Serve.Ivar.create () in
  ignore (Serve.Engine.submit e (fun () -> Serve.Ivar.read gate));
  eventually "worker busy" (fun () -> Serve.Engine.in_flight e = 1);
  checkb "second accepted" true
    (Serve.Engine.submit e (fun () -> Serve.Ivar.fill queued true) = `Ok);
  (* release the gate from a helper while drain blocks in this thread:
     drain must wait for the queued job, not discard it *)
  let releaser =
    Thread.create
      (fun () ->
        Unix.sleepf 0.05;
        Serve.Ivar.fill gate ())
      ()
  in
  Serve.Engine.drain e;
  Thread.join releaser;
  checkb "queued job completed during drain" true
    (Serve.Ivar.peek queued = Some true);
  checkb "submit after drain" true
    (Serve.Engine.submit e (fun () -> ()) = `Draining)

(* -- service ----------------------------------------------------------- *)

let req ?(id = J.Null) ?deadline_ms ?trace meth params =
  { Serve.Proto.id; meth; params; deadline_ms; trace }

let err_code = function
  | Error (e : Serve.Proto.error) -> Serve.Proto.code_to_string e.code
  | Ok _ -> "ok"

let test_service_validation () =
  let h = Serve.Service.handle in
  List.iter
    (fun m ->
      checks ("unknown method " ^ m) "unknown_method" (err_code (h (req m []))))
    [ "frob"; "exp"; "check_unit" ];
  checks "health is daemon-level" "unknown_method"
    (err_code (h (req "health" [])));
  checks "unknown param" "bad_request"
    (err_code (h (req "run" [ ("scales", J.Int 2) ])));
  checks "bad scale" "bad_request"
    (err_code (h (req "run" [ ("scale", J.Int 0) ])));
  checks "unknown id" "bad_request"
    (err_code (h (req "run" [ ("experiments", J.List [ J.String "e99" ]) ])));
  checks "bad object" "bad_request"
    (err_code (h (req "check" [ ("object", J.String "teapot") ])));
  checks "bad mutant" "bad_request"
    (err_code (h (req "check" [ ("mutant", J.String "teapot") ])))

(* A mutant aimed at another object would plant nothing, and the clean
   verdict would read like a missed bug: the check is refused with the
   mutant's target named. A matched pair still runs. *)
let test_service_mutant_target () =
  let check obj mutant =
    Serve.Service.handle
      (req "check"
         [
           ("object", J.String obj);
           ("procs", J.Int 2);
           ("depth", J.Int 5);
           ("horizon", J.Int 500);
           ("mutant", J.String mutant);
         ])
  in
  (match check "snapshot" "abd-skip-write-back" with
  | Error e ->
      checks "code" "bad_request" (Serve.Proto.code_to_string e.code);
      checks "message" "mutant abd-skip-write-back targets abd, not snapshot"
        e.message
  | Ok _ -> Alcotest.fail "mismatched mutant accepted");
  List.iter
    (fun (obj, mutant) ->
      checks (obj ^ " + " ^ mutant) "bad_request"
        (err_code (check obj mutant)))
    [
      ("register", "converge-drop-phase2");
      ("link-chaos", "hb-suspected-not-restored");
      ("hb-detector", "snapshot-single-collect");
      ("commit-adopt", "snapshot-single-collect");
    ];
  checks "hb-detector + hb-timeout-never-increased" "ok"
    (err_code (check "hb-detector" "hb-timeout-never-increased"))

let test_service_payloads_match_direct () =
  (* run: payload embeds exactly the CLI stdout renderer *)
  let run_req = req "run" [ ("experiments", J.List [ J.String "e1" ]) ] in
  (match Serve.Service.handle run_req with
  | Error _ -> Alcotest.fail "run failed"
  | Ok payload ->
      let direct =
        Serve.Service.run_text [ Wfde.Experiments.e1_fig1_set_agreement () ]
      in
      let cli =
        let config =
          { Wfde.Experiments.scale = 1; jobs = 1; spans = Obs.Span.null;
            detectors = Wfde.Harness.Oracle }
        in
        match Serve.Service.run_experiments config [ "e1" ] with
        | Ok timed -> Serve.Service.run_text (List.map (fun (_, o, _) -> o) timed)
        | Error _ -> Alcotest.fail "shared runner failed"
      in
      checks "shared runner = direct driver call" direct cli;
      (match J.member "output" payload with
      | Some (J.String s) -> checks "run output = CLI stdout" cli s
      | _ -> Alcotest.fail "run payload has no output");
      checkb "run ok flag" true (J.member "ok" payload = Some (J.Bool true)));
  (* check: payload is exactly the harness JSON document *)
  let check_req =
    req "check"
      [
        ("object", J.String "register");
        ("depth", J.Int 3);
        ("horizon", J.Int 60);
      ]
  in
  match Serve.Service.handle check_req with
  | Error _ -> Alcotest.fail "check failed"
  | Ok payload ->
      let direct =
        Wfde.Harness.check_outcome_json
          (Wfde.Harness.check_exhaustive ~depth:3 ~horizon:60
             Wfde.Scenario.Register)
      in
      checks "check payload = harness json" (J.to_string direct)
        (J.to_string payload)

let test_service_deadline () =
  let expired () = true in
  checks "run hits deadline" "deadline_exceeded"
    (err_code (Serve.Service.handle ~deadline:expired (req "run" [])));
  checks "sleep hits deadline" "deadline_exceeded"
    (err_code
       (Serve.Service.handle ~deadline:expired
          (req "sleep" [ ("ms", J.Int 50) ])));
  checks "check hits deadline" "deadline_exceeded"
    (err_code
       (Serve.Service.handle ~deadline:expired
          (req "check" [ ("depth", J.Int 3); ("horizon", J.Int 60) ])));
  (* an unexpired deadline is invisible *)
  checks "unexpired is fine" "ok"
    (err_code
       (Serve.Service.handle
          ~deadline:(fun () -> false)
          (req "sleep" [ ("ms", J.Int 0) ])))

(* -- daemon ------------------------------------------------------------ *)

let with_daemon ?(workers = 1) ?(queue_capacity = 4) ?cache ?trace ?slow_ms
    ?slow_out f =
  let socket = temp_socket () in
  let d =
    Serve.Daemon.start ?cache ?trace ?slow_ms ?slow_out ~workers
      ~queue_capacity ~socket ()
  in
  Fun.protect ~finally:(fun () -> Serve.Daemon.stop d) (fun () -> f d socket)

let rpc_ok socket r =
  match Serve.Client.rpc ~socket r with
  | Ok { Serve.Proto.result = Ok payload; _ } -> payload
  | Ok { Serve.Proto.result = Error e; _ } ->
      Alcotest.failf "server error: %s: %s"
        (Serve.Proto.code_to_string e.Serve.Proto.code)
        e.Serve.Proto.message
  | Error msg -> Alcotest.failf "transport error: %s" msg

let rpc_err socket r =
  match Serve.Client.rpc ~socket r with
  | Ok { Serve.Proto.result = Error e; _ } ->
      Serve.Proto.code_to_string e.Serve.Proto.code
  | Ok { Serve.Proto.result = Ok _; _ } -> "ok"
  | Error msg -> Alcotest.failf "transport error: %s" msg

let test_daemon_health_and_echo () =
  with_daemon (fun _ socket ->
      let payload = rpc_ok socket (req "health" []) in
      checkb "status ok" true
        (J.member "status" payload = Some (J.String "ok"));
      checkb "workers" true (J.member "workers" payload = Some (J.Int 1));
      (* ids echo through the envelope *)
      match Serve.Client.rpc ~socket (req ~id:(J.String "h7") "health" []) with
      | Ok resp -> checkb "id echoed" true (resp.Serve.Proto.resp_id = J.String "h7")
      | Error msg -> Alcotest.failf "transport error: %s" msg)

(* Satellite: the determinism regression. One check and one sweep
   request, asked (a) directly of the service, (b) through the daemon
   serially, (c) through the daemon from concurrent clients — after
   stripping the timing fields, every payload must be byte-identical. *)

let strip_timing =
  let rec go = function
    | J.Obj kvs ->
        J.Obj
          (List.map
             (fun (k, v) ->
               if k = "wall_seconds" || k = "total_wall_seconds" then (k, J.Null)
               else (k, go v))
             kvs)
    | J.List xs -> J.List (List.map go xs)
    | j -> j
  in
  go

let test_daemon_determinism () =
  let check_req =
    req "check"
      [
        ("object", J.String "register");
        ("depth", J.Int 3);
        ("horizon", J.Int 60);
      ]
  in
  let sweep_req = req "sweep" [ ("experiments", J.List [ J.String "e1" ]) ] in
  let norm p = J.to_string (strip_timing p) in
  with_daemon ~workers:2 (fun _ socket ->
      let direct r =
        match Serve.Service.handle r with
        | Ok p -> norm p
        | Error _ -> Alcotest.fail "direct handle failed"
      in
      let serial r = norm (rpc_ok socket r) in
      List.iter
        (fun (name, r) ->
          let reference = direct r in
          checks (name ^ " serial = direct") reference (serial r);
          checks (name ^ " serial repeat") reference (serial r);
          (* four concurrent clients, all sending the same request *)
          let results = Array.make 4 "" in
          let threads =
            Array.init 4 (fun i ->
                Thread.create
                  (fun i -> results.(i) <- norm (rpc_ok socket r))
                  i)
          in
          Array.iter Thread.join threads;
          Array.iteri
            (fun i got ->
              checks (Printf.sprintf "%s concurrent[%d] = direct" name i)
                reference got)
            results)
        [ ("check", check_req); ("sweep", sweep_req) ])

let test_daemon_queue_full () =
  with_daemon ~workers:1 ~queue_capacity:1 (fun d socket ->
      (* occupy the single worker, then the single queue slot, then
         observe the structured rejection — sequenced by polling the
         daemon's own gauges, not by sleeping *)
      let r1 = Thread.create (fun () -> rpc_ok socket (req "sleep" [ ("ms", J.Int 400) ])) () in
      eventually "worker busy" (fun () -> Serve.Daemon.in_flight d = 1);
      let r2 = Thread.create (fun () -> rpc_ok socket (req "sleep" [ ("ms", J.Int 0) ])) () in
      eventually "queue holds one" (fun () -> Serve.Daemon.queue_depth d = 1);
      checks "third request rejected" "queue_full"
        (rpc_err socket (req "sleep" [ ("ms", J.Int 0) ]));
      (* health still answers inline while the fleet is saturated *)
      checkb "health during saturation" true
        (J.member "status" (rpc_ok socket (req "health" []))
        = Some (J.String "ok"));
      Thread.join r1;
      Thread.join r2)

let test_daemon_deadline_reclaims_slot () =
  with_daemon ~workers:1 (fun _ socket ->
      let t0 = Unix.gettimeofday () in
      checks "expired mid-work" "deadline_exceeded"
        (rpc_err socket
           (req ~deadline_ms:50 "sleep" [ ("ms", J.Int 30_000) ]));
      checkb "cancelled long before the nominal sleep" true
        (Unix.gettimeofday () -. t0 < 5.);
      (* the worker slot is immediately reusable *)
      let p = rpc_ok socket (req "sleep" [ ("ms", J.Int 0) ]) in
      checkb "slot reclaimed" true (J.member "slept_ms" p = Some (J.Int 0)))

let test_daemon_queued_past_deadline () =
  with_daemon ~workers:1 (fun d socket ->
      let blocker =
        Thread.create
          (fun () -> rpc_ok socket (req "sleep" [ ("ms", J.Int 300) ]))
          ()
      in
      eventually "worker busy" (fun () -> Serve.Daemon.in_flight d = 1);
      (* 50ms deadline, stuck behind a 300ms job: expires in the queue *)
      checks "queued past deadline" "deadline_exceeded"
        (rpc_err socket (req ~deadline_ms:50 "sleep" [ ("ms", J.Int 0) ]));
      Thread.join blocker)

let read_response_line fd pending =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match String.index_opt !pending '\n' with
    | Some i ->
        let line = String.sub !pending 0 i in
        pending := String.sub !pending (i + 1) (String.length !pending - i - 1);
        line
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "connection closed mid-response"
        | n ->
            pending := !pending ^ Bytes.sub_string chunk 0 n;
            go ())
  in
  go ()

let test_daemon_graceful_drain () =
  let socket = temp_socket () in
  let d = Serve.Daemon.start ~workers:1 ~queue_capacity:4 ~socket () in
  (* one in-flight and one pipelined request on the same connection,
     written together so both lines are buffered daemon-side before the
     drain begins *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let line r = J.to_string (Serve.Proto.request_to_json r) ^ "\n" in
  let both =
    line (req ~id:(J.String "a") "sleep" [ ("ms", J.Int 300) ])
    ^ line (req ~id:(J.String "b") "sleep" [ ("ms", J.Int 0) ])
  in
  let b = Bytes.of_string both in
  ignore (Unix.write fd b 0 (Bytes.length b));
  eventually "first request in flight" (fun () -> Serve.Daemon.in_flight d = 1);
  let stopper = Thread.create (fun () -> Serve.Daemon.stop d) () in
  eventually "drain began" (fun () -> Serve.Daemon.draining d);
  let pending = ref "" in
  (* request (a) was in flight when the drain began: it completes *)
  (match Serve.Proto.parse_response (read_response_line fd pending) with
  | Ok { Serve.Proto.resp_id; result = Ok _; _ } ->
      checkb "in-flight completed during drain" true (resp_id = J.String "a")
  | _ -> Alcotest.fail "first drain response malformed");
  (* request (b) was behind it: refused with a structured error *)
  (match Serve.Proto.parse_response (read_response_line fd pending) with
  | Ok { Serve.Proto.resp_id; result = Error e; _ } ->
      checkb "id b" true (resp_id = J.String "b");
      checkb "shutting_down" true
        (e.Serve.Proto.code = Serve.Proto.Shutting_down)
  | _ -> Alcotest.fail "second drain response malformed");
  Unix.close fd;
  Thread.join stopper;
  (* fully drained: socket is gone, new connections are refused *)
  checkb "socket unlinked" true (not (Sys.file_exists socket));
  checkb "connect refused after drain" true
    (Result.is_error (Serve.Client.connect ~socket));
  (* stop is idempotent *)
  Serve.Daemon.stop d

(* -- tracing ----------------------------------------------------------- *)

module Span = Obs.Span

(* Satellite: end-to-end span export. A request with a trace id against
   a daemon with a sink exports the full spine
   (request/parse/queue_wait/dispatch/execute/render) plus the
   method-specific children; a request without a trace id exports
   nothing; payload bytes are unchanged either way. *)

let test_daemon_traced_request () =
  let sink = Span.sink () in
  with_daemon ~trace:sink (fun _ socket ->
      let untraced = rpc_ok socket (req "sleep" [ ("ms", J.Int 0) ]) in
      checki "untraced request exports nothing" 0 (Span.absorbed sink);
      let traced = rpc_ok socket (req ~trace:"t1" "sleep" [ ("ms", J.Int 0) ]) in
      checks "tracing is invisible in the payload" (J.to_string untraced)
        (J.to_string traced);
      let spans = Span.take sink in
      checkb "spans exported" true (spans <> []);
      List.iter
        (fun s -> checks "trace id tags every span" "t1" s.Span.trace)
        spans;
      let names = List.map (fun s -> s.Span.name) spans in
      List.iter
        (fun n ->
          checkb (Printf.sprintf "span %s present" n) true (List.mem n names))
        [ "request"; "parse"; "queue_wait"; "dispatch"; "execute";
          "sleep.wait"; "render" ];
      checkb "nothing truncated on the happy path" true
        (List.for_all (fun s -> not s.Span.truncated) spans);
      (* structural sanity: exactly one root, parents precede children *)
      checki "one root" 1
        (List.length (List.filter (fun s -> s.Span.parent = 0) spans));
      List.iter
        (fun s -> checkb "parent precedes span" true (s.Span.parent < s.Span.span_id))
        spans;
      (* a check request carries the harness's subtree through the wire *)
      ignore
        (rpc_ok socket
           (req ~trace:"t2" "check"
              [
                ("object", J.String "register");
                ("depth", J.Int 3);
                ("horizon", J.Int 60);
              ]));
      let names2 = List.map (fun s -> s.Span.name) (Span.take sink) in
      checkb "check.probe exported" true (List.mem "check.probe" names2);
      checkb "per-unit dpor spans exported" true
        (List.exists
           (fun n -> String.length n > 6 && String.sub n 0 6 = "dpor.p")
           names2);
      checkb "dpor phase spans exported" true
        (List.mem "dpor.executions" names2 && List.mem "dpor.race_analysis" names2))

(* Satellite: a drain cancels a deadline-bearing in-flight request and
   the unfinished spans are flushed with truncated=true, not lost. *)

let test_daemon_drain_truncates_spans () =
  let sink = Span.sink () in
  let socket = temp_socket () in
  let d =
    Serve.Daemon.start ~workers:1 ~queue_capacity:4 ~trace:sink ~socket ()
  in
  let result = ref "" in
  let runner =
    Thread.create
      (fun () ->
        result :=
          rpc_err socket
            (req ~trace:"cut" ~deadline_ms:60_000 "sleep"
               [ ("ms", J.Int 30_000) ]))
      ()
  in
  eventually "sleep in flight" (fun () -> Serve.Daemon.in_flight d = 1);
  Serve.Daemon.stop d;
  Thread.join runner;
  checks "drain cancelled the deadline-bearing sleep" "deadline_exceeded"
    !result;
  let spans = Span.take sink in
  checkb "spans exported on the cancelled path" true (spans <> []);
  let find name = List.find_opt (fun s -> s.Span.name = name) spans in
  (match find "sleep.wait" with
  | Some s -> checkb "sleep.wait truncated" true s.Span.truncated
  | None -> Alcotest.fail "sleep.wait span missing");
  (match find "request" with
  | Some s -> checkb "root truncated" true s.Span.truncated
  | None -> Alcotest.fail "request span missing");
  (match find "render" with
  | Some s -> checkb "render itself completes" true (not s.Span.truncated)
  | None -> Alcotest.fail "render span missing");
  Serve.Daemon.stop d

(* 60 Loadgen requests on 1 and on 4 clients, untraced and then traced
   (cache off, so every request computes and exports its own span
   tree): no request fails, the payloads are byte-identical across all
   four legs, their total size and the span count are exact functions
   of the workload, and the serial and concurrent span trees match
   after timestamp normalization. *)

let test_daemon_traced_loadgen_deterministic () =
  let sink = Span.sink ~capacity:100_000 () in
  with_daemon ~workers:2 ~queue_capacity:16 ~cache:Serve.Cache.disabled
    ~trace:sink (fun _ socket ->
      let leg ?trace_prefix name clients =
        let l =
          Serve.Loadgen.run ?trace_prefix ~socket ~total:60 ~clients ()
        in
        checki (name ^ ": no errors") 0
          (l.Serve.Loadgen.errors + l.Serve.Loadgen.transport_errors);
        checki (name ^ ": no request missing") 60 l.Serve.Loadgen.ok;
        checki (name ^ ": payload bytes") 22640 l.Serve.Loadgen.payload_bytes;
        (l, Span.take sink)
      in
      let reference, untraced_spans = leg "untraced x1" 1 in
      let untraced_conc, untraced_conc_spans = leg "untraced x4" 4 in
      checki "untraced legs export nothing" 0
        (List.length untraced_spans + List.length untraced_conc_spans);
      let serial, serial_spans = leg ~trace_prefix:"t" "traced x1" 1 in
      let concurrent, concurrent_spans = leg ~trace_prefix:"t" "traced x4" 4 in
      List.iter
        (fun (name, l) ->
          checki (name ^ ": payloads match the untraced x1 leg") 0
            (Serve.Loadgen.mismatches ~reference l))
        [
          ("untraced x4", untraced_conc);
          ("traced x1", serial);
          ("traced x4", concurrent);
        ];
      checki "traced x1: spans" 540 (List.length serial_spans);
      checki "traced x4: spans" 540 (List.length concurrent_spans);
      checks "span structure identical serial vs concurrent"
        (Span.render ~normalize:true serial_spans)
        (Span.render ~normalize:true concurrent_spans))

(* -- live metrics ------------------------------------------------------ *)

let test_daemon_metrics_formats () =
  with_daemon (fun _ socket ->
      ignore (rpc_ok socket (req "sleep" [ ("ms", J.Int 0) ]));
      let prom = rpc_ok socket (req "metrics" [ ("format", J.String "prom") ]) in
      (match J.member "content_type" prom with
      | Some (J.String ct) -> checks "content type" Obs.Prom.content_type ct
      | _ -> Alcotest.fail "prom payload has no content_type");
      (match J.member "body" prom with
      | Some (J.String body) ->
          checkb "exposition names the request counter" true
            (contains body "wfde_serve_requests{method=\"sleep\"}");
          checkb "latency histogram exported" true
            (contains body "wfde_serve_latency_ms_bucket");
          checkb "+Inf bucket present" true (contains body "le=\"+Inf\"");
          checkb "dispatch gauges exported" true
            (contains body "wfde_serve_worker_utilization")
      | _ -> Alcotest.fail "prom payload has no body");
      (* explicit and default json formats return the raw document *)
      let dflt = rpc_ok socket (req "metrics" []) in
      checkb "default json has counters" true (J.member "counters" dflt <> None);
      let explicit = rpc_ok socket (req "metrics" [ ("format", J.String "json") ]) in
      checkb "explicit json has counters" true
        (J.member "counters" explicit <> None);
      checks "unknown format rejected" "bad_request"
        (rpc_err socket (req "metrics" [ ("format", J.String "xml") ]));
      checks "unknown metrics param rejected" "bad_request"
        (rpc_err socket (req "metrics" [ ("fmt", J.String "prom") ])))

let test_daemon_slow_log () =
  let path = Filename.temp_file "wfde_slow" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      with_daemon ~slow_ms:0. ~slow_out:oc (fun _ socket ->
          ignore
            (rpc_ok socket (req ~id:(J.String "s1") "sleep" [ ("ms", J.Int 5) ])));
      close_out oc;
      let ic = open_in path in
      let line = input_line ic in
      let extra = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      checkb "exactly one slow line" true (extra = None);
      match J.of_string line with
      | Error e -> Alcotest.failf "slow log line is not JSON: %s" e
      | Ok doc ->
          checkb "event tag" true
            (J.member "event" doc = Some (J.String "slow_request"));
          checkb "method" true (J.member "method" doc = Some (J.String "sleep"));
          checkb "id" true (J.member "id" doc = Some (J.String "s1"));
          checkb "wall_ms present" true (J.member "wall_ms" doc <> None);
          checkb "queue depth present" true
            (J.member "queue_depth" doc <> None))

(* -- result cache ------------------------------------------------------ *)

let check_params = [
    ("object", J.String "register");
    ("depth", J.Int 3);
    ("horizon", J.Int 60);
  ]

(* Satellite: byte-identity regression for the result cache. For each
   cacheable method, cold miss vs warm hit must be byte-for-byte
   identical; a daemon restarted over the same cache dir serves the
   same bytes from disk; and damaged disk entries silently fall back
   to an identical recompute (modulo embedded wall times for sweep,
   whose document carries timing by design). *)
let test_daemon_cache_byte_identity () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = { Serve.Cache.capacity = 64; dir = Some dir } in
  let reqs =
    [
      ("run", req "run" [ ("experiments", J.List [ J.String "e1" ]) ]);
      ("check", req "check" check_params);
      ("sweep", req "sweep" [ ("experiments", J.List [ J.String "e1" ]) ]);
    ]
  in
  let with_cached_daemon f =
    let socket = temp_socket () in
    let d = Serve.Daemon.start ~workers:1 ~queue_capacity:4 ~cache ~socket () in
    Fun.protect ~finally:(fun () -> Serve.Daemon.stop d) (fun () -> f d socket)
  in
  let fetch socket = List.map (fun (n, r) -> (n, rpc_ok socket r)) reqs in
  let raw p = J.to_string p in
  let cold =
    with_cached_daemon (fun d socket ->
        let cold = fetch socket in
        let warm = fetch socket in
        List.iter2
          (fun (n, c) (_, w) ->
            checks (n ^ ": warm hit byte-identical to cold miss") (raw c)
              (raw w))
          cold warm;
        let s = Serve.Daemon.cache_stats d in
        checki "three cold misses" 3 s.Serve.Cache.misses;
        checki "three warm hits" 3 s.Serve.Cache.hits;
        checki "three entries" 3 s.Serve.Cache.entries;
        cold)
  in
  (* restart over the same directory: every payload comes off disk *)
  with_cached_daemon (fun d socket ->
      let disk = fetch socket in
      List.iter2
        (fun (n, c) (_, w) ->
          checks (n ^ ": disk hit after restart byte-identical") (raw c)
            (raw w))
        cold disk;
      checki "all served from disk" 3
        (Serve.Daemon.cache_stats d).Serve.Cache.disk_hits);
  (* damage every entry file: restart must fall back to recompute *)
  Array.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dir f) in
      output_string oc "garbage, not a cache entry";
      close_out oc)
    (Sys.readdir dir);
  with_cached_daemon (fun d socket ->
      let recomputed = fetch socket in
      List.iter2
        (fun (n, c) (_, w) ->
          if n = "sweep" then
            checks (n ^ ": recompute after corruption matches, sans timing")
              (J.to_string (strip_timing c))
              (J.to_string (strip_timing w))
          else
            checks (n ^ ": recompute after corruption byte-identical") (raw c)
              (raw w))
        cold recomputed;
      let s = Serve.Daemon.cache_stats d in
      checki "corrupt entries detected" 3 s.Serve.Cache.disk_errors;
      checki "all three recomputed" 3 s.Serve.Cache.misses)

(* Satellite: N identical concurrent misses produce ONE engine
   dispatch — the followers coalesce onto the leader's in-flight
   compute and everyone gets the same bytes. *)
let test_daemon_cache_coalescing () =
  with_daemon ~workers:1 ~queue_capacity:4 (fun d socket ->
      (* hold the single worker so the identical requests pile up
         behind one queued compute instead of resolving one by one *)
      let blocker =
        Thread.create
          (fun () -> rpc_ok socket (req "sleep" [ ("ms", J.Int 300) ]))
          ()
      in
      eventually "worker busy" (fun () -> Serve.Daemon.in_flight d = 1);
      let r = req "check" check_params in
      let payloads = Array.make 3 "" in
      let threads =
        Array.init 3 (fun i ->
            Thread.create
              (fun i -> payloads.(i) <- J.to_string (rpc_ok socket r))
              i)
      in
      Array.iter Thread.join threads;
      Thread.join blocker;
      checkb "payloads nonempty" true (payloads.(0) <> "");
      Array.iter
        (fun p -> checks "coalesced payloads identical" payloads.(0) p)
        payloads;
      (* the blocker plus exactly ONE compute for three identical
         misses; cache hits never reach the engine *)
      checki "engine dispatched blocker + one compute" 2
        (Serve.Daemon.dispatched d);
      let s = Serve.Daemon.cache_stats d in
      checki "one miss" 1 s.Serve.Cache.misses;
      checki "two followers hit or coalesced" 2
        (s.Serve.Cache.hits + s.Serve.Cache.coalesced))

(* Satellite: hits bypass the worker fleet — a saturated queue still
   serves cached payloads while uncached misses get [queue_full]. *)
let test_daemon_cache_hit_under_saturation () =
  with_daemon ~workers:1 ~queue_capacity:1 (fun d socket ->
      let cached = req "check" check_params in
      let warm = J.to_string (rpc_ok socket cached) in
      let blocker =
        Thread.create
          (fun () -> rpc_ok socket (req "sleep" [ ("ms", J.Int 300) ]))
          ()
      in
      (* the warm check was dispatch #1 and its in-flight reading can
         linger; only dispatch #2 proves the worker holds the blocker,
         so the next sleep really lands in the queue *)
      eventually "blocker holds the worker" (fun () ->
          Serve.Daemon.dispatched d = 2);
      let queued =
        Thread.create
          (fun () -> rpc_ok socket (req "sleep" [ ("ms", J.Int 0) ]))
          ()
      in
      eventually "queue full" (fun () -> Serve.Daemon.queue_depth d = 1);
      checks "cached payload served while saturated" warm
        (J.to_string (rpc_ok socket cached));
      checks "uncached miss still rejected" "queue_full"
        (rpc_err socket
           (req "check"
              [
                ("object", J.String "register");
                ("depth", J.Int 4);
                ("horizon", J.Int 60);
              ]));
      Thread.join blocker;
      Thread.join queued)

(* Satellite: during a graceful drain, buffered pipelined requests are
   still served from the cache (byte-identical to the warm payload)
   while uncached misses are refused with [shutting_down]. *)
let test_daemon_cache_hit_during_drain () =
  let socket = temp_socket () in
  let d = Serve.Daemon.start ~workers:1 ~queue_capacity:4 ~socket () in
  let check_req id = req ~id:(J.String id) "check" check_params in
  let warm = rpc_ok socket (check_req "w") in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let line r = J.to_string (Serve.Proto.request_to_json r) ^ "\n" in
  let miss_req =
    req ~id:(J.String "m") "check"
      [
        ("object", J.String "register");
        ("depth", J.Int 4);
        ("horizon", J.Int 60);
      ]
  in
  (* one in-flight sleep, one cached check, one uncached check — all
     buffered daemon-side before the drain begins *)
  let all =
    line (req ~id:(J.String "a") "sleep" [ ("ms", J.Int 300) ])
    ^ line (check_req "b") ^ line miss_req
  in
  let b = Bytes.of_string all in
  ignore (Unix.write fd b 0 (Bytes.length b));
  (* the warm-up check was engine dispatch #1 and can leave a stale
     in-flight reading, so gate on the SLEEP being dispatch #2 — only
     then has the conn thread consumed line (a) and buffered (b)/(m) *)
  eventually "sleep is the second dispatch" (fun () ->
      Serve.Daemon.dispatched d = 2);
  let stopper = Thread.create (fun () -> Serve.Daemon.stop d) () in
  eventually "drain began" (fun () -> Serve.Daemon.draining d);
  let pending = ref "" in
  (match Serve.Proto.parse_response (read_response_line fd pending) with
  | Ok { Serve.Proto.resp_id; result = Ok _; _ } ->
      checkb "in-flight sleep completed" true (resp_id = J.String "a")
  | _ -> Alcotest.fail "first drain response malformed");
  (match Serve.Proto.parse_response (read_response_line fd pending) with
  | Ok { Serve.Proto.resp_id; result = Ok p; _ } ->
      checkb "id b" true (resp_id = J.String "b");
      checks "cache hit served during drain, byte-identical"
        (J.to_string warm) (J.to_string p)
  | _ -> Alcotest.fail "cached request refused during drain");
  (match Serve.Proto.parse_response (read_response_line fd pending) with
  | Ok { Serve.Proto.resp_id; result = Error e; _ } ->
      checkb "id m" true (resp_id = J.String "m");
      checkb "uncached miss refused" true
        (e.Serve.Proto.code = Serve.Proto.Shutting_down)
  | _ -> Alcotest.fail "uncached drain response malformed");
  Unix.close fd;
  Thread.join stopper;
  Serve.Daemon.stop d

let test_daemon_cache_rpc () =
  with_daemon (fun _ socket ->
      let stats () = rpc_ok socket (req "cache" []) in
      checkb "enabled by default" true
        (J.member "enabled" (stats ()) = Some (J.Bool true));
      ignore (rpc_ok socket (req "check" check_params));
      ignore (rpc_ok socket (req "check" check_params));
      let s = stats () in
      checkb "one miss" true (J.member "misses" s = Some (J.Int 1));
      checkb "one hit" true (J.member "hits" s = Some (J.Int 1));
      checkb "one entry" true (J.member "entries" s = Some (J.Int 1));
      (* explicit op=stats is the same payload shape *)
      checkb "op=stats accepted" true
        (J.member "entries" (rpc_ok socket (req "cache" [ ("op", J.String "stats") ]))
        <> None);
      let cleared = rpc_ok socket (req "cache" [ ("op", J.String "clear") ]) in
      checkb "clear empties the cache" true
        (J.member "entries" cleared = Some (J.Int 0));
      checkb "clear counted" true (J.member "clears" cleared = Some (J.Int 1));
      checks "unknown op rejected" "bad_request"
        (rpc_err socket (req "cache" [ ("op", J.String "flush") ]));
      checks "unknown param rejected" "bad_request"
        (rpc_err socket (req "cache" [ ("ops", J.String "stats") ])))

(* Cache traffic shows up in the exported metrics, both formats. *)
let test_daemon_cache_metrics () =
  with_daemon (fun _ socket ->
      ignore (rpc_ok socket (req "check" check_params));
      ignore (rpc_ok socket (req "check" check_params));
      let prom = rpc_ok socket (req "metrics" [ ("format", J.String "prom") ]) in
      (match J.member "body" prom with
      | Some (J.String body) ->
          checkb "hit counter exported" true
            (contains body "wfde_serve_cache_hits");
          checkb "miss counter exported" true
            (contains body "wfde_serve_cache_misses");
          checkb "entries gauge exported" true
            (contains body "wfde_serve_cache_entries")
      | _ -> Alcotest.fail "prom payload has no body");
      let doc = rpc_ok socket (req "metrics" []) in
      match J.member "counters" doc with
      | Some counters -> (
          (* the registry is process-wide, so other tests' cache
             traffic accumulates — assert presence, not an exact count *)
          match J.member "serve.cache.hits" counters with
          | Some (J.Int n) -> checkb "json hit counter positive" true (n >= 1)
          | _ -> Alcotest.fail "serve.cache.hits missing from metrics json")
      | None -> Alcotest.fail "metrics json has no counters")

(* Cache outcomes are visible in the trace tree: a first traced check
   carries cache.miss plus the engine spine, a second carries
   cache.hit and never reaches the engine. *)
let test_daemon_cache_spans () =
  let sink = Span.sink () in
  with_daemon ~trace:sink (fun _ socket ->
      let r t = req ~trace:t "check" check_params in
      ignore (rpc_ok socket (r "c1"));
      let names1 = List.map (fun s -> s.Span.name) (Span.take sink) in
      checkb "miss span exported" true (List.mem "cache.miss" names1);
      checkb "miss still executes" true (List.mem "execute" names1);
      ignore (rpc_ok socket (r "c2"));
      let names2 = List.map (fun s -> s.Span.name) (Span.take sink) in
      checkb "hit span exported" true (List.mem "cache.hit" names2);
      checkb "hit bypasses the engine" true (not (List.mem "execute" names2)))

(* -- the CLI against a real daemon process ------------------------------ *)

let wfde_cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/wfde_cli.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [wfde args] to its exit and return the status, stdout and
   stderr. A run still going after [deadline] seconds is killed and
   fails the test, so a CLI that never ends fails instead of hanging
   the suite. *)
let cli ?(deadline = 60.) ?ocamlrunparam args =
  let out = Filename.temp_file "wfde-test-cli" ".out" in
  let err = Filename.temp_file "wfde-test-cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let fd path = Unix.openfile path [ O_WRONLY; O_TRUNC ] 0o600 in
  let out_fd = fd out and err_fd = fd err in
  let env =
    let inherited =
      List.filter
        (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
        (Array.to_list (Unix.environment ()))
    in
    match ocamlrunparam with
    | None -> Unix.environment ()
    | Some p -> Array.of_list (("OCAMLRUNPARAM=" ^ p) :: inherited)
  in
  let pid =
    Unix.create_process_env wfde_cli
      (Array.of_list ("wfde" :: args))
      env Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. t0 > deadline ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "wfde %s still running after %.0f s"
          (String.concat " " args) deadline
    | 0, _ ->
        Unix.sleepf 0.01;
        wait ()
    | _, status -> status
  in
  let status = wait () in
  (status, read_file out, read_file err)

(* Run [wfde args], which must exit 0, and return its stdout. *)
let cli_ok args =
  let status, out, err = cli args in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "wfde %s did not exit 0:\n%s" (String.concat " " args) err;
  out

let no_backtrace name err =
  let err = String.lowercase_ascii err in
  checkb (name ^ ": no backtrace") false
    (contains err "raised at" || contains err "backtrace"
    || contains err "exception")

(* A process set is one machine word, so a system holds at most 63
   processes: [wfde trace -n 64] is a one-line usage error, never a
   backtrace from inside the kernel. *)
let test_cli_procs_cap () =
  let status, out, err = cli [ "trace"; "-n"; "64" ] in
  checkb "exits non-zero" true (status <> Unix.WEXITED 0);
  checks "nothing on stdout" "" out;
  (match String.split_on_char '\n' err with
  | first :: _ ->
      checkb "first line names the bound" true
        (contains first "--procs must be an integer in [2, 63]")
  | [] -> Alcotest.fail "no error message");
  no_backtrace "trace -n 64" err

(* Bad arguments exit with their documented code and a one-line
   message: 124 for an integer out of its range, 2 for an unknown
   experiment id or a fig2 resilience not below the system size. *)
let test_cli_argument_errors () =
  List.iter
    (fun (args, code, message) ->
      let name = "wfde " ^ String.concat " " args in
      let status, _, err = cli args in
      checkb (Printf.sprintf "%s: exits %d" name code) true
        (status = Unix.WEXITED code);
      checkb (name ^ ": says " ^ message) true (contains err message);
      no_backtrace name err)
    [
      ([ "run"; "--scale"; "foo" ], 124, "must be an integer in");
      ([ "run"; "e99" ], 2, "unknown experiment id");
      ([ "check"; "--depth=-2" ], 124, "must be an integer in");
      ([ "trace"; "-p"; "fig2"; "-n"; "3"; "-f"; "3" ], 2, "must be below --procs");
    ]

(* A mutant aimed at another object exits 2 with one line naming its
   target, before exploring anything. *)
let test_cli_check_mutant_target () =
  let status, out, err =
    cli [ "check"; "--object"; "snapshot"; "--mutant"; "abd-skip-write-back" ]
  in
  checkb "exits 2" true (status = Unix.WEXITED 2);
  checks "nothing on stdout" "" out;
  checks "one line" "mutant abd-skip-write-back targets abd, not snapshot\n"
    err

(* The model checker end to end: clean ABD at p3 d10 finds no violation
   with DPOR exploring at least 10x fewer executions than the naive
   bound, and every planted mutant, each on its target object, is
   caught with a shrunk, reported counterexample. *)
let test_cli_check_smoke () =
  let check_json args =
    let json = Filename.temp_file "wfde-test-check" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove json) @@ fun () ->
    ignore (cli_ok (("check" :: args) @ [ "--json"; json ]));
    match J.of_string (read_file json) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "bad check JSON: %s" e
  in
  let int doc k =
    match Option.bind (J.member k doc) J.to_int with
    | Some n -> n
    | None -> Alcotest.failf "check JSON has no integer %s" k
  in
  let clean =
    check_json [ "--object"; "abd"; "--procs"; "3"; "--depth"; "10" ]
  in
  checkb "object" true (J.member "object" clean = Some (J.String "abd"));
  checki "procs" 3 (int clean "procs");
  checki "depth" 10 (int clean "depth");
  checkb "clean abd: no violation" true
    (J.member "violation" clean = Some J.Null);
  checkb "executions > 0" true (int clean "executions" > 0);
  checkb "DPOR prunes at least 10x" true
    (int clean "executions" * 10 <= int clean "naive_bound");
  List.iter
    (fun (mutant, args) ->
      let doc = check_json (args @ [ "--mutant"; mutant ]) in
      checkb (mutant ^ ": named") true
        (J.member "mutant" doc = Some (J.String mutant));
      match J.member "violation" doc with
      | Some (J.Obj _ as v) ->
          checkb (mutant ^ ": shrunk") true
            (J.member "shrunk" v = Some (J.Bool true));
          checkb (mutant ^ ": reported") true
            (match J.member "report" v with
            | Some (J.String r) -> r <> ""
            | _ -> false)
      | _ -> Alcotest.failf "planted mutant %s not caught" mutant)
    [
      ("abd-skip-write-back", [ "--object"; "abd"; "--procs"; "3"; "--depth"; "6" ]);
      ( "snapshot-single-collect",
        [ "--object"; "snapshot"; "--procs"; "3"; "--depth"; "12" ] );
      ( "converge-drop-phase2",
        [ "--object"; "commit-adopt"; "--procs"; "2"; "--depth"; "6" ] );
      ( "hb-timeout-never-increased",
        [ "--object"; "hb-detector"; "--procs"; "2"; "--depth"; "5"; "--horizon"; "500" ] );
      ( "hb-suspected-not-restored",
        [ "--object"; "hb-detector"; "--procs"; "2"; "--depth"; "5"; "--horizon"; "500" ] );
    ]

(* Past n+1 = 20 the traced figures still run: Υᶠ draws its stable set
   without listing every subset of Π. *)
let test_cli_trace_large_systems () =
  List.iter
    (fun args -> ignore (cli_ok ("trace" :: args)))
    [
      [ "-p"; "fig1"; "-n"; "21"; "--limit"; "2" ];
      [ "-p"; "fig2"; "-n"; "40"; "-f"; "3"; "--limit"; "2" ];
    ]

(* The skeleton's horizon is twice the limit, capped: a limit near
   [max_int] once overflowed it to a negative number and the run, which
   starves under lock-step, never ended. *)
let test_cli_trace_async_huge_limit () =
  ignore (cli_ok [ "trace"; "-p"; "async"; "--limit"; "4611686018427387903" ])

let cli_json args =
  match J.of_string (cli_ok args) with
  | Ok j -> j
  | Error e -> Alcotest.failf "wfde %s printed bad JSON: %s" (List.hd args) e

let hex_entries dir =
  List.filter
    (fun f ->
      String.length f = 32
      && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) f)
    (Array.to_list (Sys.readdir dir))

(* [wfde serve] with [args] as a child process; [f socket log] runs
   once the readiness banner names the socket, with [log ()] reading
   the daemon's stdout and stderr so far, then the daemon gets SIGTERM
   and must drain, exit 0 and remove its socket. Returns [f]'s
   result. *)
let with_cli_daemon args f =
  let socket = temp_socket () in
  let log = Filename.temp_file "wfde-test-serve" ".log" in
  let fd = Unix.openfile log [ O_WRONLY; O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process wfde_cli
      (Array.of_list
         ([ "wfde"; "serve"; "--socket"; socket; "--workers"; "2"; "--queue";
            "32" ] @ args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let exited = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !exited then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end;
      Sys.remove log)
    (fun () ->
      eventually ~timeout:30.0 "wfde serve readiness banner" (fun () ->
          contains (read_file log) ("wfde serve: listening on " ^ socket));
      let v = f socket (fun () -> read_file log) in
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      exited := true;
      checkb "SIGTERM drains and exits 0" true (status = Unix.WEXITED 0);
      checkb "drain logged" true (contains (read_file log) "wfde serve: drained, bye");
      checkb "socket removed" false (Sys.file_exists socket);
      v)

let cache_args dir = [ "--cache"; "64"; "--cache-dir"; dir ]

let client_check ?(params = J.to_string (J.Obj check_params)) socket =
  cli_ok [ "client"; "check"; "--socket"; socket; "--params"; params ]

let int_member name j =
  match J.member name j with Some (J.Int n) -> n | _ -> Alcotest.failf "no int %s" name

(* The daemon end to end, as a child process: health over the socket,
   run and check payloads byte-identical to the CLI's output, and the
   structured-error exit codes (1 for unknown_method, 124 for
   deadline_exceeded); [with_cli_daemon] checks the SIGTERM drain. *)
let test_cli_daemon_smoke () =
  with_cli_daemon [] (fun socket _ ->
      let health = cli_json [ "client"; "health"; "--socket"; socket ] in
      checkb "health: status ok" true
        (J.member "status" health = Some (J.String "ok"));
      checki "health: workers" 2 (int_member "workers" health);
      let json = Filename.temp_file "wfde-test-check" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove json) (fun () ->
          ignore
            (cli_ok
               [ "check"; "--object"; "register"; "--depth"; "3"; "--horizon";
                 "60"; "--json"; json ]);
          checks "client check = check --json" (read_file json)
            (client_check socket));
      let run =
        cli_json
          [ "client"; "run"; "--socket"; socket; "--params";
            {|{"experiments":["e1"]}|} ]
      in
      checkb "run: ok" true (J.member "ok" run = Some (J.Bool true));
      checkb "run: every experiment ok" true
        (match J.member "experiments" run with
        | Some (J.List (_ :: _ as es)) ->
            List.for_all (fun e -> J.member "ok" e = Some (J.Bool true)) es
        | _ -> false);
      checkb "run: output = wfde run e1 stdout" true
        (J.member "output" run = Some (J.String (cli_ok [ "run"; "e1" ])));
      List.iter
        (fun (args, code, message) ->
          let status, _, err = cli ("client" :: args) in
          checkb (Printf.sprintf "%s exits %d" message code) true
            (status = Unix.WEXITED code);
          checkb ("stderr names " ^ message) true (contains err message))
        [
          ([ "nosuch"; "--socket"; socket ], 1, "unknown_method");
          ( [ "sleep"; "--socket"; socket; "--params"; {|{"ms":2000}|};
              "--deadline-ms"; "50" ],
            124,
            "deadline_exceeded" );
        ])

let test_cli_cache_banner_and_stats () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_cli_daemon (cache_args dir) (fun socket log ->
      checkb "banner names the cache dir" true
        (contains (log ()) ("cache-dir=" ^ dir));
      let cold = client_check socket in
      let warm =
        client_check socket
          ~params:{|{"horizon":60,"depth":3,"object":"register"}|}
      in
      checks "reordered params hit and replay the exact bytes" cold warm;
      let s = cli_json [ "client"; "cache"; "--socket"; socket ] in
      checkb "client cache: a hit" true (int_member "hits" s >= 1);
      checkb "client cache: a miss" true (int_member "misses" s >= 1);
      checkb "client cache: an entry" true (int_member "entries" s >= 1);
      checki "one 32-hex entry file after the miss" 1
        (List.length (hex_entries dir));
      let prom =
        cli_ok
          [ "client"; "metrics"; "--socket"; socket; "--params";
            {|{"format":"prom"}|} ]
      in
      List.iter
        (fun name ->
          checkb (name ^ " in the exposition") true (contains prom name))
        [ "wfde_serve_cache_hits"; "wfde_serve_cache_misses";
          "wfde_serve_cache_entries" ])

let test_cli_cache_disk_and_clear () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cold = with_cli_daemon (cache_args dir) (fun socket _ -> client_check socket) in
  with_cli_daemon (cache_args dir) (fun socket _ ->
      let disk = client_check socket in
      checks "disk-served bytes equal the pre-restart answer" cold disk;
      let json = Filename.temp_file "wfde-test-check" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove json) (fun () ->
          ignore
            (cli_ok
               [ "check"; "--object"; "register"; "--depth"; "3"; "--horizon";
                 "60"; "--json"; json ]);
          checks "disk-served bytes equal wfde check --json" (read_file json)
            disk);
      let s = cli_json [ "client"; "cache"; "--socket"; socket ] in
      checkb "client cache: served from disk" true (int_member "disk_hits" s >= 1);
      checki "client cache: no disk errors" 0 (int_member "disk_errors" s);
      let c =
        cli_json
          [ "client"; "cache"; "--socket"; socket; "--params";
            {|{"op":"clear"}|} ]
      in
      checki "client cache clear: no entries left" 0 (int_member "entries" c);
      checkb "client cache clear: clear counted" true (int_member "clears" c >= 1);
      checki "no 32-hex entry file after clear" 0
        (List.length (hex_entries dir)))

(* The heap a [wfde args] run peaked at, from the runtime's exit
   report. *)
let top_heap_words args =
  let status, _, err = cli ~ocamlrunparam:"v=0x400" args in
  checkb "exits 0" true (status = Unix.WEXITED 0);
  match
    List.find_map
      (fun l ->
        Scanf.sscanf_opt l "top_heap_words: %d" Fun.id)
      (String.split_on_char '\n' err)
  with
  | Some w -> w
  | None -> Alcotest.failf "no top_heap_words in:\n%s" err

(* [wfde trace] prints at most --limit events, or streams the export,
   and keeps only the decisions: printing two events of a 40-process
   run once peaked at 635,352 heap words, keeping every event. *)
let test_cli_trace_keeps_little () =
  let args = [ "trace"; "-p"; "fig2"; "-n"; "40"; "-f"; "3"; "--limit"; "2" ] in
  let bound = 300_000 in
  let printed = top_heap_words args in
  checkb (Printf.sprintf "printing: %d <= %d heap words" printed bound) true
    (printed <= bound);
  let out = Filename.temp_file "wfde-test-trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let exported = top_heap_words (args @ [ "--out"; out ]) in
  checkb (Printf.sprintf "exporting: %d <= %d heap words" exported bound) true
    (exported <= bound)

(* The round window retires what no undecided process can reach.
   Keeping every round's objects, a2's starving Fig-1 runs peaked at
   2,048,949 heap words and the lock-step skeleton at 1,177,117. *)
let test_cli_round_window_heap () =
  let bound = 400_000 in
  List.iter
    (fun args ->
      let words = top_heap_words args in
      checkb
        (Printf.sprintf "wfde %s: %d <= %d heap words" (String.concat " " args)
           words bound)
        true (words <= bound))
    [ [ "run"; "a2" ]; [ "trace"; "-p"; "async"; "--limit"; "250000" ] ]

(* [wfde trace --out] writes each event as it happens, byte for byte
   the golden exports (the file name gives the trace flags). *)
let test_cli_trace_golden_exports () =
  List.iter
    (fun (golden, args) ->
      let out = Filename.temp_file "wfde-test-trace" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
      ignore (cli_ok (("trace" :: args) @ [ "--out"; out ]));
      checks golden (read_file ("golden/" ^ golden)) (read_file out))
    [
      ("fig1_seed11.jsonl", [ "-p"; "fig1"; "--seed"; "11" ]);
      ("fig1_seed13.jsonl", [ "-p"; "fig1"; "--seed"; "13" ]);
      ("fig2_seed4.jsonl", [ "-p"; "fig2"; "--seed"; "4" ]);
      ("fig2_seed9_p4_f2.jsonl", [ "-p"; "fig2"; "--seed"; "9"; "-n"; "4"; "-f"; "2" ]);
      ("async_seed1.jsonl", [ "-p"; "async"; "--seed"; "1" ]);
      ("async_seed2_p4.jsonl", [ "-p"; "async"; "--seed"; "2"; "-n"; "4" ]);
    ]

(* [--detector-impl hb --gst 12 --loss 50] names the heartbeat scenario
   over the link those flags describe (delta 2, pre-GST delay
   (gst + 3) / 4, link seed 7): the same check as naming it with
   --object. *)
let test_cli_check_hb_flags () =
  let common = [ "--procs"; "2"; "--depth"; "5"; "--horizon"; "500" ] in
  let check_json args =
    let json = Filename.temp_file "wfde-test-check" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove json) @@ fun () ->
    ignore (cli_ok (("check" :: args) @ common @ [ "--json"; json ]));
    read_file json
  in
  let obj = "hb-detector(gst=12,delta=2,pre_delay=3,loss=50,seed=7)" in
  let flags =
    check_json [ "--detector-impl"; "hb"; "--gst"; "12"; "--loss"; "50" ]
  in
  (match J.of_string flags with
  | Ok doc ->
      checkb "object named by the flags" true
        (J.member "object" doc = Some (J.String obj));
      checkb "no violation" true (J.member "violation" doc = Some J.Null)
  | Error e -> Alcotest.failf "bad check JSON: %s" e);
  checks "same document as --object" (check_json [ "--object"; obj ]) flags

let json_doc path =
  match J.of_string (read_file path) with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "bad JSON in %s: %s" path e

(* The implemented-detector experiments (d1 conformance grid, d2
   oracle-vs-implemented substitutability, d3 model checking) and e5
   with its heartbeat row print the same bytes at every -j: simulated
   time is scheduler steps, so parallelism must not leak into a table.
   d2's implemented detectors reach the oracles' verdicts. *)
let test_cli_sweep_hb_jobs () =
  let args =
    [ "sweep"; "d1"; "d2"; "d3"; "e5" ]
    @ [ "--detector-impl"; "hb"; "--gst"; "60"; "--loss"; "40" ]
  in
  let json = Filename.temp_file "wfde-test-sweep" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove json) @@ fun () ->
  let serial = cli_ok (args @ [ "-j"; "1" ]) in
  let parallel = cli_ok (args @ [ "-j"; "4"; "--json"; json ]) in
  checks "-j 1 and -j 4 print the same" serial parallel;
  checkb "verdicts agree" true (contains parallel "verdicts agree");
  let doc = json_doc json in
  checkb "schema" true (J.member "schema" doc = Some (J.String "wfde-sweep/1"));
  let experiments =
    match J.member "experiments" doc with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "no experiments list"
  in
  let ids =
    List.filter_map
      (fun e -> Option.bind (J.member "id" e) J.to_str)
      experiments
  in
  List.iter
    (fun id -> checkb ("has " ^ id) true (List.mem id ids))
    [ "d1"; "d2"; "d3"; "e5" ];
  List.iter2
    (fun id e ->
      checkb (id ^ " ok") true (J.member "ok" e = Some (J.Bool true)))
    ids experiments

(* Pre-GST chaos must not break safety on the clean scenarios (the
   planted heartbeat mutants are caught elsewhere), and the heartbeat
   check prints the same bytes at every -j. *)
let test_cli_check_hb_clean () =
  let common = [ "--procs"; "2"; "--depth"; "5"; "--horizon"; "500" ] in
  let hb =
    [ "check"; "--detector-impl"; "hb"; "--gst"; "12"; "--loss"; "50" ] @ common
  in
  checks "-j 1 and -j 4 print the same"
    (cli_ok (hb @ [ "-j"; "1" ]))
    (cli_ok (hb @ [ "-j"; "4" ]));
  List.iter
    (fun args ->
      let name = String.concat " " args in
      let json = Filename.temp_file "wfde-test-check" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove json) @@ fun () ->
      ignore (cli_ok (args @ [ "--json"; json ]));
      let doc = json_doc json in
      checkb (name ^ ": no violation") true
        (J.member "violation" doc = Some J.Null);
      checkb (name ^ ": executions > 0") true
        (match Option.bind (J.member "executions" doc) J.to_int with
        | Some n -> n > 0
        | None -> false))
    [ hb; [ "check"; "--object"; "link-chaos" ] @ common ]

(* [scripts/check_prom.py] on [text]: a valid Prometheus exposition
   holding every [require]d family. *)
let check_prom ?(require = []) name text =
  let file = Filename.temp_file "wfde-test" ".prom" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  let args =
    "../scripts/check_prom.py" :: file
    :: List.concat_map (fun r -> [ "--require"; r ]) require
  in
  let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let pid =
    Unix.create_process "python3"
      (Array.of_list ("python3" :: args))
      Unix.stdin null Unix.stderr
  in
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  checkb (name ^ ": check_prom.py accepts it") true (status = Unix.WEXITED 0)

(* A daemon with tracing and a 1 ms slow log, end to end: traced run
   and check requests export wfde-span/1 spans (in the sink before the
   client has its reply), the metrics exposition over the socket is
   valid, every slow request logs one structured line, and after the
   SIGTERM drain [wfde spans] renders the trees. *)
let test_cli_daemon_observability () =
  let spans = Filename.temp_file "wfde-test-spans" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove spans) @@ fun () ->
  with_cli_daemon [ "--trace-out"; spans; "--slow-ms"; "1" ] (fun socket log ->
      checkb "banner names the span file" true
        (contains (log ()) ("trace-out=" ^ spans));
      ignore
        (cli_ok
           [ "client"; "run"; "--socket"; socket; "--trace"; "t-run";
             "--params"; {|{"experiments":["e1"]}|} ]);
      ignore
        (cli_ok
           [ "client"; "check"; "--socket"; socket; "--trace"; "t-check";
             "--params"; {|{"object":"register","depth":3,"horizon":60}|} ]);
      let lines =
        List.filter_map
          (fun l ->
            if String.trim l = "" then None
            else
              match J.of_string l with
              | Ok j -> Some j
              | Error e -> Alcotest.failf "bad span line %S: %s" l e)
          (String.split_on_char '\n' (read_file spans))
      in
      checkb "spans exported" true (lines <> []);
      let str k j = match J.member k j with Some (J.String s) -> s | _ -> "" in
      List.iter
        (fun j ->
          checks "span schema" "wfde-span/1" (str "schema" j);
          checkb "span id >= 1, parent >= 0" true
            (int_member "span" j >= 1 && int_member "parent" j >= 0))
        lines;
      let traces = List.map (str "trace") lines
      and names = List.map (str "name") lines in
      List.iter
        (fun t -> checkb ("trace " ^ t ^ " exported") true (List.mem t traces))
        [ "t-run"; "t-check" ];
      List.iter
        (fun n -> checkb ("span " ^ n ^ " exported") true (List.mem n names))
        [ "request"; "parse"; "queue_wait"; "dispatch"; "execute"; "render" ];
      let metrics =
        cli_ok
          [ "client"; "metrics"; "--socket"; socket; "--params";
            {|{"format":"prom"}|} ]
      in
      check_prom "metrics over the socket" metrics
        ~require:[ "wfde_serve_requests"; "wfde_serve_latency_ms" ];
      let slow () =
        List.filter
          (fun l -> contains l {|"event":"slow_request"|})
          (String.split_on_char '\n' (log ()))
      in
      eventually "a slow_request line" (fun () -> slow () <> []);
      List.iter
        (fun l ->
          match J.of_string l with
          | Error e -> Alcotest.failf "bad slow-log line %S: %s" l e
          | Ok j ->
              checkb "slow: wall_ms >= 1" true
                (match J.member "wall_ms" j with
                | Some w -> Option.value ~default:0. (J.to_float w) >= 1.
                | None -> false);
              checkb "slow: queue_depth and in_flight" true
                (J.member "queue_depth" j <> None
                && J.member "in_flight" j <> None))
        (slow ()));
  let rendered = cli_ok [ "spans"; spans ] in
  checkb "spans renders the run trace" true (contains rendered "trace t-run");
  checkb "spans renders execute" true (contains rendered "execute")

(* [wfde stats --format prom] is the same exposition format, offline. *)
let test_cli_stats_prom () =
  check_prom "stats e8 --format prom"
    (cli_ok [ "stats"; "e8"; "--format"; "prom" ])
    ~require:[ "wfde_kernel_scheduler_steps" ]

let suite =
  [
    Alcotest.test_case "proto: request roundtrip" `Quick test_proto_roundtrip;
    Alcotest.test_case "proto: malformed requests" `Quick test_proto_errors;
    Alcotest.test_case "proto: response roundtrip" `Quick
      test_proto_response_roundtrip;
    Alcotest.test_case "proto: rendered splice matches document render" `Quick
      test_proto_rendered_response;
    Alcotest.test_case "proto: error exit codes" `Quick test_proto_exit_codes;
    Alcotest.test_case "ivar: fill/read/peek" `Quick test_ivar;
    Alcotest.test_case "jobq: fifo, bounds, close drains" `Quick
      test_jobq_order_and_bounds;
    Alcotest.test_case "engine: jobs run and return" `Quick
      test_engine_runs_jobs;
    Alcotest.test_case "engine: queue-full backpressure" `Quick
      test_engine_backpressure;
    Alcotest.test_case "engine: drain completes queued work" `Quick
      test_engine_drain_completes_queued;
    Alcotest.test_case "service: validation errors" `Quick
      test_service_validation;
    Alcotest.test_case "service: mutant aimed at another object" `Quick
      test_service_mutant_target;
    Alcotest.test_case "service: payloads match direct calls" `Quick
      test_service_payloads_match_direct;
    Alcotest.test_case "service: cooperative deadlines" `Quick
      test_service_deadline;
    Alcotest.test_case "daemon: health and id echo" `Quick
      test_daemon_health_and_echo;
    Alcotest.test_case "daemon: serial/concurrent/direct determinism" `Quick
      test_daemon_determinism;
    Alcotest.test_case "daemon: queue-full under a filled queue" `Quick
      test_daemon_queue_full;
    Alcotest.test_case "daemon: deadline expiry reclaims the slot" `Quick
      test_daemon_deadline_reclaims_slot;
    Alcotest.test_case "daemon: deadline expires while queued" `Quick
      test_daemon_queued_past_deadline;
    Alcotest.test_case "daemon: graceful drain" `Quick
      test_daemon_graceful_drain;
    Alcotest.test_case "daemon: traced request exports spans" `Quick
      test_daemon_traced_request;
    Alcotest.test_case "daemon: drain truncates open spans" `Quick
      test_daemon_drain_truncates_spans;
    Alcotest.test_case "daemon: traced loadgen deterministic" `Quick
      test_daemon_traced_loadgen_deterministic;
    Alcotest.test_case "daemon: metrics formats (json/prom)" `Quick
      test_daemon_metrics_formats;
    Alcotest.test_case "daemon: slow-request log" `Quick test_daemon_slow_log;
    Alcotest.test_case "cache: cold/warm/disk byte-identity per method" `Quick
      test_daemon_cache_byte_identity;
    Alcotest.test_case "cache: identical misses coalesce to one compute"
      `Quick test_daemon_cache_coalescing;
    Alcotest.test_case "cache: hits served while the fleet is saturated"
      `Quick test_daemon_cache_hit_under_saturation;
    Alcotest.test_case "cache: hits served during graceful drain" `Quick
      test_daemon_cache_hit_during_drain;
    Alcotest.test_case "cache: RPC stats and clear" `Quick
      test_daemon_cache_rpc;
    Alcotest.test_case "cache: counters exported via metrics" `Quick
      test_daemon_cache_metrics;
    Alcotest.test_case "cli: serve banner, wfde cache stats, one entry file"
      `Quick test_cli_cache_banner_and_stats;
    Alcotest.test_case "cli: disk-served check equals check --json, clear"
      `Quick test_cli_cache_disk_and_clear;
    Alcotest.test_case "cli: trace -n 64 is a one-line error" `Quick
      test_cli_procs_cap;
    Alcotest.test_case "cli: bad arguments exit with one-line errors" `Quick
      test_cli_argument_errors;
    Alcotest.test_case "cli: trace at n+1 = 21 and 40" `Quick
      test_cli_trace_large_systems;
    Alcotest.test_case "cli: trace -p async with a huge limit ends" `Quick
      test_cli_trace_async_huge_limit;
    Alcotest.test_case "cli: trace keeps only what it prints" `Quick
      test_cli_trace_keeps_little;
    Alcotest.test_case "cli: round window bounds a2 and async heaps" `Quick
      test_cli_round_window_heap;
    Alcotest.test_case "cli: trace --out streams the golden exports" `Quick
      test_cli_trace_golden_exports;
    Alcotest.test_case "cli: check --detector-impl hb names its link" `Quick
      test_cli_check_hb_flags;
    Alcotest.test_case "cli: sweep d1 d2 d3 e5 hb, -j 1 = -j 4" `Quick
      test_cli_sweep_hb_jobs;
    Alcotest.test_case "cli: check hb and link-chaos clean, -j" `Quick
      test_cli_check_hb_clean;
    Alcotest.test_case "cli: daemon spans, prom, slow log, drain, render"
      `Quick test_cli_daemon_observability;
    Alcotest.test_case "cli: stats --format prom is valid exposition" `Quick
      test_cli_stats_prom;
    Alcotest.test_case "cli: daemon health, payloads, errors, drain" `Quick
      test_cli_daemon_smoke;
    Alcotest.test_case "cache: hit/miss spans in the trace tree" `Quick
      test_daemon_cache_spans;
    Alcotest.test_case "cli: check refuses a mutant aimed elsewhere" `Quick
      test_cli_check_mutant_target;
    Alcotest.test_case "cli: check clean abd and every planted mutant" `Quick
      test_cli_check_smoke;
  ]
