open Kernel

type obj =
  | Register
  | Snapshot
  | Abd
  | Commit_adopt
  | Hb_detector of Link.config
  | Link_chaos of Link.config

(* The canonical adversarial link for the parameterized scenarios: GST
   late enough that a DPOR window of depth <= 12 is entirely pre-GST,
   with heavy loss and delay before it. *)
let default_chaos =
  { Link.gst = 12; delta = 2; pre_delay = 6; loss_pct = 50; link_seed = 3 }

let all =
  [
    Register;
    Snapshot;
    Abd;
    Commit_adopt;
    Hb_detector default_chaos;
    Link_chaos default_chaos;
  ]

let to_string = function
  | Register -> "register"
  | Snapshot -> "snapshot"
  | Abd -> "abd"
  | Commit_adopt -> "commit-adopt"
  | Hb_detector cfg -> Printf.sprintf "hb-detector(%s)" (Link.config_to_string cfg)
  | Link_chaos cfg -> Printf.sprintf "link-chaos(%s)" (Link.config_to_string cfg)

let parse_configured s ~prefix ~of_cfg =
  let plen = String.length prefix in
  if
    String.length s > plen + 2
    && String.starts_with ~prefix:(prefix ^ "(") s
    && s.[String.length s - 1] = ')'
  then
    let body = String.sub s (plen + 1) (String.length s - plen - 2) in
    Some (Result.map of_cfg (Link.config_of_string body))
  else if String.equal s prefix then Some (Ok (of_cfg default_chaos))
  else None

let of_string s =
  match List.find_opt (fun o -> String.equal (to_string o) s) all with
  | Some o -> Ok o
  | None -> (
      match
        ( parse_configured s ~prefix:"hb-detector" ~of_cfg:(fun c -> Hb_detector c),
          parse_configured s ~prefix:"link-chaos" ~of_cfg:(fun c -> Link_chaos c) )
      with
      | Some r, _ | _, Some r -> r
      | None, None ->
          Error
            (Printf.sprintf
               "unknown object %S (expected one of: register, snapshot, abd, \
                commit-adopt, hb-detector[(gst=..,delta=..,pre_delay=..,\
                loss=..,seed=..)], link-chaos[(...)])"
               s))

let min_procs = function
  | Register -> 1
  | Snapshot | Abd | Commit_adopt | Hb_detector _ | Link_chaos _ -> 2

(* A Lin-checked history holds at most 62 events: the register world
   logs four per process, the snapshot world one update per updater and
   two scans. *)
let max_procs = function
  | Register -> 15
  | Snapshot -> 61
  | Abd | Commit_adopt | Hb_detector _ | Link_chaos _ -> Pid.max_procs

let require obj procs =
  if procs < min_procs obj || procs > max_procs obj then
    invalid_arg
      (Printf.sprintf "Scenario.make %s: needs %d to %d processes"
         (to_string obj) (min_procs obj) (max_procs obj))

(* Every process increments through one shared register: two writes and
   two reads each, all single-step and recorded with their step time. *)
let register ~procs () =
  let reg = Memory.Register.create ~name:"r" 0 in
  let l = Histories.log () in
  let body pid () =
    let base = 10 * (Pid.to_int pid + 1) in
    Histories.logged_write l reg ~me:pid (base + 1);
    ignore (Histories.logged_read l reg ~me:pid);
    Histories.logged_write l reg ~me:pid (base + 2);
    ignore (Histories.logged_read l reg ~me:pid)
  in
  ignore procs;
  let check (_ : Run.result) =
    Lin.check (Histories.register_spec ~init:0) (Histories.events l)
  in
  ((fun pid -> [ body pid ]), check)

(* procs-1 updaters (each writing its own slot once) and one scanner
   scanning twice. *)
let snapshot ~mutant ~procs () =
  let snap = Memory.Snapshot.create ~name:"s" ~size:procs ~init:(fun _ -> 0) in
  Option.iter (Memory.Snapshot.unsafe_plant snap) mutant;
  let l = Histories.log () in
  let scanner = procs - 1 in
  let body pid () =
    if Pid.to_int pid = scanner then begin
      ignore (Histories.logged_scan l snap ~me:pid);
      ignore (Histories.logged_scan l snap ~me:pid)
    end
    else Histories.logged_update l snap ~me:pid (10 * (Pid.to_int pid + 1))
  in
  let check (_ : Run.result) =
    Lin.check
      (Histories.snapshot_spec ~size:procs ~init:(fun _ -> 0))
      (Histories.events l)
  in
  ((fun pid -> [ body pid ]), check)

(* An ABD register with a write stranded mid-update-phase before the run
   begins: tag (1, p2) with value 1 reached only p2's replica, and the
   corresponding attempt is on record. p1 reads twice; every process
   runs a server. Whether the stranded value stays reachable is up to
   the failure pattern (crashing p2 silences the only fresh replica). *)
let abd ~mutant ~procs () =
  let t = Memory.Abd.create ~name:"abd" ~n_plus_1:procs ~init:0 in
  Option.iter (Memory.Abd.unsafe_plant t) mutant;
  let holder = 1 in
  let tag = { Memory.Abd.seq = 1; writer = holder } in
  Memory.Abd.unsafe_seed_replica t ~owner:holder ~key:"x" ~tag 1;
  Memory.Abd.unsafe_attempt t ~key:"x" ~tag 1 ~invoked:0;
  let reader () =
    ignore (Memory.Abd.read t ~me:0 ~key:"x");
    ignore (Memory.Abd.read t ~me:0 ~key:"x")
  in
  let procs_fn pid =
    let server = Memory.Abd.server t ~me:pid in
    if Pid.to_int pid = 0 then [ reader; server ] else [ server ]
  in
  let check (_ : Run.result) =
    Lin.check (Histories.abd_spec ~init:0) (Histories.abd_history t)
  in
  (procs_fn, check)

(* Distinct inputs through one commit–adopt instance; results collected
   harness-side (order-insensitive, as the reduction requires). *)
let commit_adopt ~mutant ~procs () =
  let inst =
    Converge.create ~name:"ca" ~k:1 ~size:procs ~compare:Int.compare
  in
  Option.iter (Converge.unsafe_plant inst) mutant;
  let picks = Array.make procs None in
  let input p = 100 + p in
  let body pid () =
    let p = Pid.to_int pid in
    picks.(p) <- Some (Converge.run inst ~me:p (input p))
  in
  let check (_ : Run.result) =
    let finished =
      Array.to_list picks |> List.filter_map Fun.id
    in
    let inputs = List.init procs input in
    match
      List.find_opt (fun (v, _) -> not (List.mem v inputs)) finished
    with
    | Some (v, _) ->
        Error (Printf.sprintf "C-Validity: %d was picked but never proposed" v)
    | None -> (
        match List.find_opt (fun (_, committed) -> committed) finished with
        | None -> Ok ()
        | Some (v, _) ->
            if List.for_all (fun (v', _) -> v' = v) finished then Ok ()
            else
              Error
                (Printf.sprintf
                   "commit-adopt agreement: %d committed but picks were %s" v
                   (String.concat ","
                      (List.map (fun (v', _) -> string_of_int v') finished))))
  in
  ((fun pid -> [ body pid ]), check)

(* Every process runs one heartbeat monitor (implemented ◇P) over an
   adversarial link; the property is the full subsystem contract — link
   partial synchrony, crash isolation, and ◇P conformance over the
   reconstructed history. The failure pattern is recovered from the
   run's crashes, so the check closure fits [Dpor.explore]'s
   world-free signature. Timeout starts below the heartbeat spacing on
   purpose: every schedule exercises false suspicion, restore, and
   timeout growth — exactly the mechanisms the planted heartbeat
   mutants disable. *)
let hb_detector cfg ~mutant ~procs () =
  let eng =
    Detectors.Hb_ev_perfect.make
      ~params:{ Detectors.Heartbeat.period = 4; timeout0 = 2; timeout_inc = 6 }
      ~n_plus_1:procs ~net:cfg ()
  in
  Option.iter (Detectors.Heartbeat.unsafe_plant eng) mutant;
  let fibers pid = [ Detectors.Heartbeat.fiber eng ~me:pid ] in
  let check (r : Run.result) =
    let pattern = Failure_pattern.make ~n_plus_1:procs ~crashes:r.crashes in
    let link = Detectors.Heartbeat.link eng in
    Result.bind (Link.check_partial_synchrony link) @@ fun () ->
    Result.bind (Link.check_crash_isolation link ~pattern) @@ fun () ->
    Detectors.Hb_ev_perfect.check eng ~pattern ~horizon:r.last_time
  in
  (fibers, check)

(* The link layer alone under chaos: every process periodically
   broadcasts and polls forever. Checked: the link honoured its
   partial-synchrony contract on every message, no crashed process
   observed one, and — bounded liveness made safety-checkable — every
   message ready well before the end and addressed to a correct process
   was delivered. *)
let link_chaos cfg ~procs () =
  let link = Link.create ~name:"chaos" ~n_plus_1:procs ~config:cfg () in
  let tick = Array.init procs (fun _ -> Timer.Periodic.create ~period:3) in
  let body pid () =
    let rec loop () =
      let now, _msgs = Link.poll_now link ~me:pid in
      if Timer.Periodic.due tick.(Pid.to_int pid) ~now then
        Link.broadcast link now;
      loop ()
    in
    loop ()
  in
  let check (r : Run.result) =
    let pattern = Failure_pattern.make ~n_plus_1:procs ~crashes:r.crashes in
    let horizon = r.last_time in
    Result.bind (Link.check_partial_synchrony link) @@ fun () ->
    Result.bind (Link.check_crash_isolation link ~pattern) @@ fun () ->
    (* a correct process polls at least once per round-robin rotation of
       the tail; this slack covers many rotations *)
    let slack = 6 * procs * (procs + 1) in
    let stale =
      Link.undelivered_ready link ~by:(horizon - slack)
      |> List.filter (fun r -> Failure_pattern.is_correct pattern r.Link.sr_to)
    in
    match stale with
    | [] -> Ok ()
    | r :: _ ->
        Error
          (Printf.sprintf
             "liveness: %s->%s sent@%d ready@%d still undelivered at %d"
             (Pid.to_string r.Link.sr_from)
             (Pid.to_string r.Link.sr_to)
             r.Link.sr_sent_at r.Link.sr_ready_at horizon)
  in
  ((fun pid -> [ body pid ]), check)

let mutant_of_string obj name =
  Result.bind (Mutant.of_string name) @@ fun m ->
  let target =
    match m with
    | Mutant.Abd_skip_write_back -> "abd"
    | Snapshot_single_collect -> "snapshot"
    | Converge_drop_phase2 -> "commit-adopt"
    | Hb_timeout_never_increased | Hb_suspected_not_restored -> "hb-detector"
  in
  let kind =
    match obj with
    | Hb_detector _ -> "hb-detector"
    | Link_chaos _ -> "link-chaos"
    | o -> to_string o
  in
  if String.equal target kind then Ok m
  else
    Error
      (Printf.sprintf "mutant %s targets %s, not %s" (Mutant.to_string m)
         target (to_string obj))

(* Register and Link_chaos build nothing a mutant can be planted in. *)
let make ?mutant obj ~procs =
  require obj procs;
  match obj with
  | Register -> register ~procs
  | Snapshot -> snapshot ~mutant ~procs
  | Abd -> abd ~mutant ~procs
  | Commit_adopt -> commit_adopt ~mutant ~procs
  | Hb_detector cfg -> hb_detector cfg ~mutant ~procs
  | Link_chaos cfg -> link_chaos cfg ~procs

let patterns obj ~procs =
  let none = Failure_pattern.no_failures ~n_plus_1:procs in
  match obj with
  | Abd when procs >= 3 ->
      (* crash the replica-seeding process at a sweep of times: early
         crashes silence the stranded value before anyone reads it, late
         crashes let exactly one read see it *)
      none
      :: List.map
           (fun t -> Failure_pattern.make ~n_plus_1:procs ~crashes:[ (1, t) ])
           (List.init 24 (fun i -> i + 1))
  | Hb_detector cfg | Link_chaos cfg ->
      (* one pre-GST crash and one post-GST crash: the first exercises
         loss/delay interacting with a silent process, the second makes
         the detector re-stabilize after GST *)
      [
        none;
        Failure_pattern.make ~n_plus_1:procs ~crashes:[ (1, 3) ];
        Failure_pattern.make ~n_plus_1:procs ~crashes:[ (1, cfg.Link.gst + 5) ];
      ]
  | Register | Snapshot | Abd | Commit_adopt -> [ none ]
