(* The serve workload: in-process daemons with 2 workers and the default
   result cache, each driven by a closed loop over 2 client connections.
   Each client sends its next request only when the previous reply has
   arrived.

   The traffic is the repository's own load generator's ([Serve.Loadgen]),
   extended by one class. Request [i] of a stream is a pure function of
   (seed, i): a class drawn with equal shares, as [Loadgen.request_for]
   gives its check/run/no-op cycle equal shares, then:
   - run: [Loadgen.request_for]'s one-experiment run ([run e1]);
   - check: [Loadgen.zipf_request], bench part 6's register checks drawn
     by Zipf([Loadgen.default_skew]) over [Loadgen.default_universe]
     shapes;
   - check_mutant: the check workload's heartbeat mutant catch. Mutant
     flags are process-global and only check requests take the mutant
     scope, so a converge, snapshot or ABD mutant would leak into
     concurrent [run e1] requests; [e1] never reads the heartbeat flags;
   - health: the daemon's liveness call, [request_for]'s no-op slot.

   Every reply is checked: health must answer, and every other payload
   must match the digest the uncached serial reference leg captured in
   reference.txt. *)

open Wfde
module J = Obs.Json
module Loadgen = Serve.Loadgen

type cls = Run | Check | Check_mutant | Health

let classes = [| Run; Check; Check_mutant; Health |]

let class_name = function
  | Run -> "run"
  | Check -> "check"
  | Check_mutant -> "check_mutant"
  | Health -> "health"

let make ?trace meth params =
  { Serve.Proto.id = J.Null; meth; params; deadline_ms = None; trace }

let run_e1 ?trace () = make ?trace "run" [ ("experiments", J.List [ J.String "e1" ]) ]

let mutant_check ?trace () =
  make ?trace "check"
    [
      ("object", J.String "hb-detector");
      ("procs", J.Int 2);
      ("depth", J.Int 5);
      ("horizon", J.Int 500);
      ("mutant", J.String "hb-timeout-never-increased");
    ]

let health ?trace () = make ?trace "health" []

let zipf ?trace_prefix ~seed i =
  Loadgen.zipf_request ?trace_prefix ~seed ~skew:Loadgen.default_skew
    ~universe:Loadgen.default_universe i

(* Request [i] of the stream of [seed], with its class. *)
let request ?trace_prefix ~seed i =
  let trace = Option.map (fun p -> Printf.sprintf "%s%d" p i) trace_prefix in
  let cls = classes.(Rng.int (Rng.create ((seed * 1_000_003) + i)) (Array.length classes)) in
  let r =
    match cls with
    | Run -> run_e1 ?trace ()
    | Check -> zipf ?trace_prefix ~seed i
    | Check_mutant -> mutant_check ?trace ()
    | Health -> health ?trace ()
  in
  (cls, { r with id = J.Int i })

(* Reference lines are keyed by a digest of the request, which keeps
   reference.txt small. *)
let key (r : Serve.Proto.request) =
  Digest.to_hex (Digest.string (r.meth ^ " " ^ J.to_string (J.Obj r.params)))

let digest payload = Digest.to_hex (Digest.string (J.to_string payload))

(* The uncached serial reference leg: every distinct request but health,
   computed by the service handler directly. The Zipf shapes are found
   by sampling far more indices than it takes to see them all. *)
let reference () =
  let shapes = Hashtbl.create 16 in
  Hashtbl.replace shapes (key (run_e1 ())) (run_e1 ());
  Hashtbl.replace shapes (key (mutant_check ())) (mutant_check ());
  for i = 0 to 9_999 do
    let r = zipf ~seed:0 i in
    Hashtbl.replace shapes (key r) r
  done;
  if Hashtbl.length shapes <> 2 + Loadgen.default_universe then
    failwith "reference leg: did not see every Zipf shape";
  Hashtbl.fold
    (fun k r acc ->
      match Serve.Service.handle r with
      | Ok payload -> (k, digest payload) :: acc
      | Error e -> failwith ("reference leg failed: " ^ e.Serve.Proto.message))
    shapes []

type sample = {
  index : int;
  cls : cls;
  ms : float;  (** client-side latency *)
  ok : bool;
  answer : string;  (** payload digest, "" on error *)
}

(* One round: [clients] closed-loop connections send requests 0 ..
   [requests - 1] of the stream, each index taken by whichever client is
   free. *)
let drive ~socket ~seed ~clients ~requests ~traced
    ~(reference : string -> string option) =
  let next = Atomic.make 0 in
  let results = Array.make clients [] in
  let trace_prefix = if traced then Some "t" else None in
  let client k =
    match Serve.Client.connect ~socket with
    | Error _ ->
        results.(k) <- [ { index = -1; cls = Health; ms = 0.; ok = false; answer = "" } ]
    | Ok conn ->
        let rec loop acc =
          let i = Atomic.fetch_and_add next 1 in
          if i >= requests then acc
          else
            let cls, req = request ?trace_prefix ~seed i in
            let t0 = Unix.gettimeofday () in
            let reply = Serve.Client.call conn req in
            let ms = (Unix.gettimeofday () -. t0) *. 1000. in
            let ok, answer =
              match reply with
              | Ok { Serve.Proto.result = Ok payload; _ } ->
                  if cls = Health then (true, "health")
                  else
                    let d = digest payload in
                    (reference (key req) = Some d, d)
              | Ok { Serve.Proto.result = Error _; _ } | Error _ -> (false, "")
            in
            loop ({ index = i; cls; ms; ok; answer } :: acc)
        in
        results.(k) <- loop [];
        Serve.Client.close conn
  in
  let threads = List.init clients (fun k -> Thread.create client k) in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)
