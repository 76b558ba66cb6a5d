module J = Obs.Json

type leg = {
  total : int;
  ok : int;
  errors : int;
  transport_errors : int;
  payload_bytes : int;
  wall_seconds : float;
  latencies_ms : float array;
  payloads : string array;
}

let request_for ?trace_prefix i =
  let id = J.String (Printf.sprintf "i%d" i) in
  let trace = Option.map (fun p -> Printf.sprintf "%s%d" p i) trace_prefix in
  match i mod 3 with
  | 0 ->
      {
        Proto.id;
        meth = "check";
        params =
          [
            ("object", J.String "register");
            ("depth", J.Int 3);
            ("horizon", J.Int 60);
          ];
        deadline_ms = None;
        trace;
      }
  | 1 ->
      {
        Proto.id;
        meth = "run";
        params = [ ("experiments", J.List [ J.String "e1" ]) ];
        deadline_ms = None;
        trace;
      }
  | _ ->
      {
        Proto.id;
        meth = "sleep";
        params = [ ("ms", J.Int 0) ];
        deadline_ms = None;
        trace;
      }

(* ------------------------------------------------ Zipf scenario ------ *)

let default_skew = 1.2
let default_universe = 8

(* The sampled shape for global index [i]: a fresh splitmix64 stream
   per index (seeded from [seed] and [i]) drives one CDF walk over
   Zipf(rank^-skew) weights — a pure function of (seed, skew,
   universe, i), so every leg over the same parameters samples the
   same shape sequence. *)
let zipf_shape ~seed ~skew ~universe i =
  let universe = max 1 universe in
  let rng = Wfde.Rng.create ((seed * 0x9e3779b1) + i) in
  let w = Array.init universe (fun r -> 1.0 /. (float_of_int (r + 1) ** skew)) in
  let total_w = Array.fold_left ( +. ) 0. w in
  let x =
    float_of_int (Wfde.Rng.int rng 1_000_000) /. 1_000_000. *. total_w
  in
  let rec walk r acc =
    let acc = acc +. w.(r) in
    if x < acc || r = universe - 1 then r else walk (r + 1) acc
  in
  walk 0 0.

let zipf_request ?trace_prefix ~seed ~skew ~universe i =
  let shape = zipf_shape ~seed ~skew ~universe i in
  let c = shape / 2 in
  {
    Proto.id = J.String (Printf.sprintf "z%d" i);
    meth = "check";
    params =
      [
        ("object", J.String "register");
        (* deep enough that a computed check costs a few ms — the
           cache's order-of-magnitude win must clear client overhead *)
        ("depth", J.Int (5 + (c mod 2)));
        ("horizon", J.Int (60 + (20 * (c / 2))));
        (* odd shapes are the -j2 twin of the even shape below them:
           same class, same payload bytes, same cache key *)
        ("jobs", J.Int (1 + (shape mod 2)));
      ];
    deadline_ms = None;
    trace = Option.map (fun p -> Printf.sprintf "%s%d" p i) trace_prefix;
  }

(* The jobs-normalized class of index [i] under the default
   distribution. *)
let zipf_class ~seed i =
  zipf_shape ~seed ~skew:default_skew ~universe:default_universe i / 2

let zipf_distinct_classes ~seed ~total =
  let seen = Hashtbl.create 16 in
  for i = 0 to total - 1 do
    Hashtbl.replace seen (zipf_class ~seed i) ()
  done;
  Hashtbl.length seen

(* ------------------------------------------------------- driver ------ *)

let run_with ~request ~socket ~total ~clients () =
  let clients = max 1 (min clients (max 1 total)) in
  let latencies_ms = Array.make total 0. in
  let payloads = Array.make total "" in
  let ok = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let transport_errors = Atomic.make 0 in
  let client_loop c =
    match Client.connect ~socket with
    | Error _ ->
        (* count every request this client owned as failed *)
        let rec owned i n = if i >= total then n else owned (i + clients) (n + 1) in
        ignore (Atomic.fetch_and_add transport_errors (owned c 0))
    | Ok conn ->
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            let i = ref c in
            while !i < total do
              let t0 = Unix.gettimeofday () in
              (match Client.call conn (request !i) with
              | Ok { Proto.result = Ok payload; _ } ->
                  latencies_ms.(!i) <- (Unix.gettimeofday () -. t0) *. 1000.;
                  payloads.(!i) <- J.to_string payload;
                  Atomic.incr ok
              | Ok { Proto.result = Error _; _ } -> Atomic.incr errors
              | Error _ -> Atomic.incr transport_errors);
              i := !i + clients
            done)
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init clients (fun c -> Thread.create client_loop c) in
  Array.iter Thread.join threads;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  {
    total;
    ok = Atomic.get ok;
    errors = Atomic.get errors;
    transport_errors = Atomic.get transport_errors;
    payload_bytes =
      Array.fold_left (fun acc p -> acc + String.length p) 0 payloads;
    wall_seconds;
    latencies_ms;
    payloads;
  }

let run ?trace_prefix ~socket ~total ~clients () =
  run_with ~request:(request_for ?trace_prefix) ~socket ~total ~clients ()

let run_zipf ~seed ~socket ~total ~clients () =
  run_with
    ~request:
      (zipf_request ~seed ~skew:default_skew ~universe:default_universe)
    ~socket ~total ~clients ()

let mismatches ~reference leg =
  let n = min (Array.length reference.payloads) (Array.length leg.payloads) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if
      reference.payloads.(i) <> ""
      && leg.payloads.(i) <> ""
      && not (String.equal reference.payloads.(i) leg.payloads.(i))
    then incr count
  done;
  !count

let zipf_class_mismatches ~seed leg =
  let first = Hashtbl.create 16 in
  let count = ref 0 in
  Array.iteri
    (fun i p ->
      if p <> "" then
        let c = zipf_class ~seed i in
        match Hashtbl.find_opt first c with
        | None -> Hashtbl.add first c p
        | Some q -> if not (String.equal p q) then incr count)
    leg.payloads;
  !count
