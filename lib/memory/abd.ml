open Kernel

type tag = { seq : int; writer : Pid.t }

let compare_tag a b =
  if a.seq <> b.seq then Int.compare a.seq b.seq
  else Pid.compare a.writer b.writer

type 'a message =
  | Query of { op : int; key : string }
  | Query_reply of { op : int; tag : tag; value : 'a }
  | Update of { op : int; key : string; tag : tag; value : 'a }
  | Update_ack of { op : int }

type 'a reply = Tagged of tag * 'a | Acked

let m_reads = Obs.Metrics.counter "memory.abd.reads"
let m_writes = Obs.Metrics.counter "memory.abd.writes"
let m_query_phases = Obs.Metrics.counter "memory.abd.query_phases"
let m_update_phases = Obs.Metrics.counter "memory.abd.update_phases"

(* simulated time units between invocation and response of one client op *)
let m_latency = Obs.Metrics.histogram "memory.abd.op_latency"

type 'a op = {
  kind : [ `Read | `Write ];
  pid : Pid.t;
  key : string;
  tag : tag;
  value : 'a;
  invoked : int;
  responded : int;
}

type 'a t = {
  n_plus_1 : int;
  init : 'a;
  net : 'a message Link.t;
  replica : (string, tag * 'a) Hashtbl.t array; (* per-process replicas, by key *)
  replica_kinds : (string, Sim.kind * Sim.kind) Hashtbl.t array;
      (* per process, by key: the replica's read and write labels *)
  counters : int array; (* per-process client op ids *)
  buffers : (int, 'a reply list ref) Hashtbl.t array; (* client reply buffers *)
  mutable log : 'a op list;
  mutable attempts : (string * tag * 'a * int) list;
      (* write tags broadcast, with keys, values and invoke times *)
  mutable skip_write_back : bool;
      (* planted Mutant.Abd_skip_write_back: reads become merely regular *)
  metrics : Obs.Metrics.registry; (* the creating domain's, for every count *)
}

let create ~name ~n_plus_1 ~init =
  {
    n_plus_1;
    init;
    net =
      Link.create ~name:(name ^ ".net") ~n_plus_1 ~config:Link.default_config
        ();
    replica = Array.init n_plus_1 (fun _ -> Hashtbl.create 16);
    replica_kinds = Array.init n_plus_1 (fun _ -> Hashtbl.create 4);
    counters = Array.make n_plus_1 0;
    buffers = Array.init n_plus_1 (fun _ -> Hashtbl.create 16);
    log = [];
    attempts = [];
    skip_write_back = false;
    metrics = Obs.Metrics.registry ();
  }

let replica_get t ~me ~key =
  match Hashtbl.find_opt t.replica.(me) key with
  | Some pair -> pair
  | None -> ({ seq = 0; writer = 0 }, t.init)

let quorum t = (t.n_plus_1 / 2) + 1

(* Route a reply into the local client's buffer for the matching op (the
   buffer is process-local state shared by the two fibers of one
   process, like Fig 3's two tasks). *)
let stash t ~me ~op reply =
  match Hashtbl.find_opt t.buffers.(me) op with
  | Some cell -> cell := reply :: !cell
  | None -> () (* reply to a finished operation: drop *)

(* The replica/responder fiber: answer requests from the local copy,
   adopt fresher (tag, value) pairs, forward replies to the client. *)
(* Replica step labels carry the owning process: replica.(me) is local
   state only [me]'s server ever touches, so labelling it per process
   lets schedule exploration commute replica steps of distinct
   processes. Each (process, key) pair's labels are built once, so a
   replica step reuses them and DPOR's interning finds them by physical
   equality. *)
let replica_kinds t ~me ~key =
  match Hashtbl.find t.replica_kinds.(me) key with
  | kinds -> kinds
  | exception Not_found ->
      let obj = "abd.replica/" ^ Pid.to_string me ^ "/" ^ key in
      let kinds = (Sim.Read { obj }, Sim.Write { obj }) in
      Hashtbl.add t.replica_kinds.(me) key kinds;
      kinds

let server t ~me () =
  Sim.daemon ();
  while true do
    let messages = Link.poll t.net ~me in
    List.iter
      (fun (from, message) ->
        match message with
        | Query { op; key } ->
            let reply =
              Sim.atomic (fst (replica_kinds t ~me ~key)) (fun _ ->
                  let tag, value = replica_get t ~me ~key in
                  Query_reply { op; tag; value })
            in
            Link.send t.net ~to_:from reply
        | Update { op; key; tag; value } ->
            Sim.atomic (snd (replica_kinds t ~me ~key)) (fun _ ->
                let current_tag, _ = replica_get t ~me ~key in
                if compare_tag tag current_tag > 0 then
                  Hashtbl.replace t.replica.(me) key (tag, value));
            Link.send t.net ~to_:from (Update_ack { op })
        | Query_reply { op; tag; value } ->
            Sim.atomic Sim.Nop (fun _ -> stash t ~me ~op (Tagged (tag, value)))
        | Update_ack { op } -> Sim.atomic Sim.Nop (fun _ -> stash t ~me ~op Acked))
      messages
  done

let fresh_op t ~me =
  t.counters.(me) <- t.counters.(me) + 1;
  let op = t.counters.(me) in
  Hashtbl.replace t.buffers.(me) op (ref []);
  op

(* Spin (one step per probe) until [op] has collected [want] replies;
   returns them and the time of the completing probe. *)
let await t ~me ~op ~want =
  let rec probe () =
    let status =
      Sim.atomic Sim.Nop (fun ctx ->
          match Hashtbl.find_opt t.buffers.(me) op with
          | Some cell when List.length !cell >= want ->
              Hashtbl.remove t.buffers.(me) op;
              Some (!cell, ctx.Sim.now)
          | Some _ | None -> None)
    in
    match status with Some result -> result | None -> probe ()
  in
  probe ()

let max_tagged replies =
  List.fold_left
    (fun best reply ->
      match (reply, best) with
      | Tagged (tag, value), None -> Some (tag, value)
      | Tagged (tag, value), Some (best_tag, _) when compare_tag tag best_tag > 0
        ->
          Some (tag, value)
      | (Tagged _ | Acked), best -> best)
    None replies

(* Phase 1: collect a majority of (tag, value) pairs. Returns the pair
   with the highest tag, the invocation time (the marker step below) and
   the phase's completion time. *)
let query_phase t ~me ~key =
  Obs.Metrics.add_in t.metrics m_query_phases 1;
  let op = fresh_op t ~me in
  let invoked = ref 0 in
  Sim.atomic
    (Sim.Write { obj = "abd.query" })
    (fun ctx ->
      invoked := ctx.Sim.now;
      ());
  Link.broadcast t.net (Query { op; key });
  let replies, completed = await t ~me ~op ~want:(quorum t) in
  match max_tagged replies with
  | Some (tag, value) -> (tag, value, !invoked, completed)
  | None -> assert false (* quorum >= 1 Tagged replies *)

(* Phase 2: propagate (tag, value) to a majority. Returns the response
   time. *)
let update_phase t ~me ~key ~tag ~value =
  Obs.Metrics.add_in t.metrics m_update_phases 1;
  let op = fresh_op t ~me in
  Link.broadcast t.net (Update { op; key; tag; value });
  let _, responded = await t ~me ~op ~want:(quorum t) in
  responded

let log_op t entry = t.log <- entry :: t.log

let read t ~me ~key =
  let tag, value, invoked, query_done = query_phase t ~me ~key in
  (* write-back: a later read must not see an older value *)
  let responded =
    if t.skip_write_back then query_done
    else update_phase t ~me ~key ~tag ~value
  in
  Obs.Metrics.add_in t.metrics m_reads 1;
  Obs.Metrics.observe_in t.metrics m_latency (responded - invoked);
  log_op t { kind = `Read; pid = me; key; tag; value; invoked; responded };
  value

let write t ~me ~key value =
  let max_tag, _, invoked, _ = query_phase t ~me ~key in
  let tag = { seq = max_tag.seq + 1; writer = me } in
  (* the tag becomes visible from here on, even if this client crashes
     before completing: atomicity lets such a write linearize anywhere
     after its invocation *)
  t.attempts <- (key, tag, value, invoked) :: t.attempts;
  let responded = update_phase t ~me ~key ~tag ~value in
  Obs.Metrics.add_in t.metrics m_writes 1;
  Obs.Metrics.observe_in t.metrics m_latency (responded - invoked);
  log_op t { kind = `Write; pid = me; key; tag; value; invoked; responded };
  ()

let oplog t = List.rev t.log
let attempts t = t.attempts

let unsafe_seed_replica t ~owner ~key ~tag value =
  Hashtbl.replace t.replica.(owner) key (tag, value)

let unsafe_attempt t ~key ~tag value ~invoked =
  t.attempts <- (key, tag, value, invoked) :: t.attempts

let unsafe_plant t = function
  | Mutant.Abd_skip_write_back -> t.skip_write_back <- true
  | _ -> ()

let unsafe_append t entry = t.log <- entry :: t.log

(* Atomicity is per register: check each key's sub-log independently. *)
let check_atomicity_key t the_key =
  let ops = List.filter (fun o -> String.equal o.key the_key) (oplog t) in
  let writes = List.filter (fun o -> o.kind = `Write) ops in
  let reads = List.filter (fun o -> o.kind = `Read) ops in
  let describe o =
    Format.asprintf "%s(%s) by %a tag=(%d,%a) [%d,%d]"
      (match o.kind with `Read -> "read" | `Write -> "write")
      o.key Pid.pp o.pid o.tag.seq Pid.pp o.tag.writer o.invoked o.responded
  in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* 1: write tags distinct and real-time consistent *)
  let rec pairs = function
    | [] -> Ok ()
    | w :: rest ->
        let bad =
          List.find_opt
            (fun w' ->
              compare_tag w.tag w'.tag = 0
              || (w.responded < w'.invoked && compare_tag w.tag w'.tag >= 0)
              || (w'.responded < w.invoked && compare_tag w'.tag w.tag >= 0))
            rest
        in
        (match bad with
        | Some w' -> err "write order violation: %s vs %s" (describe w) (describe w')
        | None -> pairs rest)
  in
  let check_reads_vs_writes () =
    List.fold_left
      (fun acc r ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            (* 2: no stale read: any write completed before the read
               began must not out-tag the read *)
            let stale =
              List.find_opt
                (fun w ->
                  w.responded < r.invoked && compare_tag w.tag r.tag > 0)
                writes
            in
            (match stale with
            | Some w -> err "stale read: %s missed %s" (describe r) (describe w)
            | None ->
                (* 4: the read's tag must come from a write invoked before
                   the read responded, or be the initial tag *)
                if r.tag.seq = 0 then Ok ()
                else if
                  (* completed writes and crashed-mid-flight attempts both
                     produce legitimately readable tags *)
                  List.exists
                    (fun (key, tag, _value, invoked) ->
                      String.equal key the_key
                      && compare_tag tag r.tag = 0
                      && invoked <= r.responded)
                    t.attempts
                then Ok ()
                else err "read from the future or unknown tag: %s" (describe r)))
      (Ok ()) reads
  in
  let check_read_read () =
    List.fold_left
      (fun acc r ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            (* 3: non-overlapping reads respect tag order *)
            match
              List.find_opt
                (fun r' ->
                  r.responded < r'.invoked && compare_tag r.tag r'.tag > 0)
                reads
            with
            | Some r' ->
                err "new-old read inversion: %s then %s" (describe r)
                  (describe r')
            | None -> Ok ()))
      (Ok ()) reads
  in
  match pairs writes with
  | Error _ as e -> e
  | Ok () -> (
      match check_reads_vs_writes () with
      | Error _ as e -> e
      | Ok () -> check_read_read ())

let keys t =
  List.sort_uniq String.compare (List.map (fun o -> o.key) (oplog t))

let check_atomicity t =
  List.fold_left
    (fun acc key ->
      match acc with Error _ -> acc | Ok () -> check_atomicity_key t key)
    (Ok ()) (keys t)
