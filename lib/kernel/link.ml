(* Point-to-point links: one [Sim.Send] step per send, one [Sim.Recv]
   step per poll, both labelled with the destination mailbox object so
   schedule exploration sees sends to and polls of one mailbox as
   conflicting. The partial synchrony lives entirely in per-message
   *fate* metadata (drop, or a ready time), decided at send time by a
   pure RNG keyed on (seed, sender, destination, send time) — send
   times are globally unique, so a run's fates are a pure function of
   (config, schedule) and DPOR replays are exact. [default_config] is
   the reliable network ABD runs on, so the hot paths below skip the
   work a reliable, timely link never needs. *)

type config = {
  gst : int;
  delta : int;
  pre_delay : int;
  loss_pct : int;
  link_seed : int;
}

let default_config =
  { gst = 0; delta = 1; pre_delay = 0; loss_pct = 0; link_seed = 1 }

let check_config cfg =
  if cfg.gst < 0 then invalid_arg "Link: gst must be >= 0";
  if cfg.delta < 1 then invalid_arg "Link: delta must be >= 1";
  if cfg.pre_delay < 0 then invalid_arg "Link: pre_delay must be >= 0";
  if cfg.loss_pct < 0 || cfg.loss_pct > 100 then
    invalid_arg "Link: loss_pct must be in [0, 100]"

let pp_config ppf cfg =
  Format.fprintf ppf "gst=%d,delta=%d,pre_delay=%d,loss=%d,seed=%d" cfg.gst
    cfg.delta cfg.pre_delay cfg.loss_pct cfg.link_seed

let config_to_string cfg = Format.asprintf "%a" pp_config cfg

let config_of_string s =
  match
    Scanf.sscanf_opt s "gst=%d,delta=%d,pre_delay=%d,loss=%d,seed=%d%!"
      (fun gst delta pre_delay loss_pct link_seed ->
        { gst; delta; pre_delay; loss_pct; link_seed })
  with
  | Some cfg -> (
      match check_config cfg with
      | () -> Ok cfg
      | exception Invalid_argument msg -> Error msg)
  | None ->
      Error
        (Printf.sprintf
           "bad link config %S (expected gst=N,delta=N,pre_delay=N,loss=N,seed=N)"
           s)

type send_record = {
  sr_from : Pid.t;
  sr_to : Pid.t;
  sr_sent_at : int;
  sr_ready_at : int; (* -1 = dropped *)
  mutable sr_delivered_at : int; (* -1 = still in flight *)
}

type 'm envelope = { env_payload : 'm; env_rec : send_record }

type 'm t = {
  link_name : string;
  cfg : config;
  send_kinds : Sim.kind array; (* per destination, built once *)
  recv_kinds : Sim.kind array;
  queues : 'm envelope Queue.t array; (* per-destination, send order *)
  stash : 'm envelope list array; (* per-receiver, drained but not ready *)
  mutable log : send_record list; (* newest first *)
  m_sent : Obs.Metrics.counter;
  m_delivered : Obs.Metrics.counter;
  m_dropped : Obs.Metrics.counter;
  m_delayed : Obs.Metrics.counter;
  m_depth : Obs.Metrics.gauge array; (* per-receiver mailbox depth *)
}

let create ~name ~n_plus_1 ~config () =
  check_config config;
  let label what =
    Printf.sprintf "net.link.%s{link=%s}" what name
  in
  let mailboxes =
    Array.init n_plus_1 (fun p ->
        Printf.sprintf "%s->%s" name (Pid.to_string p))
  in
  {
    link_name = name;
    cfg = config;
    send_kinds = Array.map (fun obj -> Sim.Send { obj }) mailboxes;
    recv_kinds = Array.map (fun obj -> Sim.Recv { obj }) mailboxes;
    queues = Array.init n_plus_1 (fun _ -> Queue.create ());
    stash = Array.make n_plus_1 [];
    log = [];
    m_sent = Obs.Metrics.counter (label "sent");
    m_delivered = Obs.Metrics.counter (label "delivered");
    m_dropped = Obs.Metrics.counter (label "dropped");
    m_delayed = Obs.Metrics.counter (label "delayed");
    m_depth =
      Array.init n_plus_1 (fun p ->
          Obs.Metrics.gauge
            (Printf.sprintf "net.link.mailbox_depth{link=%s,pid=p%d}" name
               (p + 1)));
  }

let name t = t.link_name
let config t = t.cfg

(* Pure per-message randomness: the same odd-constant mixing as
   [Detectors.Detector.Chaos.rng], keyed so distinct (sender, dest,
   time) triples give independent streams. *)
let fate_rng cfg ~from ~to_ ~time =
  Rng.create
    ((cfg.link_seed * 0x2545F491)
    lxor ((from + 1) * 0x9E3779B9)
    lxor ((to_ + 1) * 0xC2B2AE35)
    lxor ((time + 1) * 0x85EBCA6B))

(* The message's fate, decided at send time [time]: after GST every
   message is delivered within [delta]; before GST it may be dropped
   (probability [loss_pct]%) or delayed by up to [pre_delay] extra
   steps. Ready times are always >= time + 1: a message is never
   receivable in the step that sent it. With [delta = 1] the post-GST
   draw is [Rng.int r 1 = 0], so no RNG is built for it. *)
let fate cfg ~from ~to_ ~time =
  if time >= cfg.gst then
    if cfg.delta = 1 then `Ready (time + 1)
    else
      let r = fate_rng cfg ~from ~to_ ~time in
      `Ready (time + 1 + Rng.int r cfg.delta)
  else
    let r = fate_rng cfg ~from ~to_ ~time in
    if Rng.int r 100 < cfg.loss_pct then `Drop
    else `Ready (time + 1 + Rng.int r (cfg.pre_delay + 1))

let send t ~to_ m =
  Sim.atomic t.send_kinds.(to_) (fun ctx ->
      let from = ctx.Sim.pid and time = ctx.Sim.now in
      Obs.Metrics.incr t.m_sent;
      match fate t.cfg ~from ~to_ ~time with
      | `Drop ->
          Obs.Metrics.incr t.m_dropped;
          t.log <-
            {
              sr_from = from;
              sr_to = to_;
              sr_sent_at = time;
              sr_ready_at = -1;
              sr_delivered_at = -1;
            }
            :: t.log
      | `Ready ready ->
          if ready > time + 1 then Obs.Metrics.incr t.m_delayed;
          let env_rec =
            {
              sr_from = from;
              sr_to = to_;
              sr_sent_at = time;
              sr_ready_at = ready;
              sr_delivered_at = -1;
            }
          in
          t.log <- env_rec :: t.log;
          Queue.push { env_payload = m; env_rec } t.queues.(to_))

let broadcast t m = Array.iteri (fun to_ _ -> send t ~to_ m) t.queues

let poll_now t ~me =
  (* Labelled with the polled mailbox — the object a send to [me]
     writes — so independence analysis sees a send and a poll of one
     mailbox as conflicting. Returns the step time too: timeout-driven
     protocols need [now] on every iteration, and charging a second
     step for it would double their step cost. *)
  Sim.atomic t.recv_kinds.(me) (fun ctx ->
      if not (Pid.equal ctx.Sim.pid me) then
        invalid_arg "Link.poll: polling another process's mailbox";
      let now = ctx.Sim.now in
      let q = t.queues.(me) in
      let rec drain acc =
        match Queue.take_opt q with
        | Some env -> drain (env :: acc)
        | None -> List.rev acc
      in
      (* Arrival order is send order filtered by readiness: stable and
         deterministic given the schedule. *)
      let pending = t.stash.(me) @ drain [] in
      let is_ready env = env.env_rec.sr_ready_at <= now in
      let ready, waiting =
        if List.for_all is_ready pending then (pending, [])
        else List.partition is_ready pending
      in
      t.stash.(me) <- waiting;
      Obs.Metrics.incr ~by:(List.length ready) t.m_delivered;
      Obs.Metrics.set t.m_depth.(me) (float_of_int (List.length waiting));
      let msgs =
        List.map
          (fun env ->
            env.env_rec.sr_delivered_at <- now;
            (env.env_rec.sr_from, env.env_payload))
          ready
      in
      (now, msgs))

let poll t ~me = snd (poll_now t ~me)

let in_flight t pid = Queue.length t.queues.(pid) + List.length t.stash.(pid)
let sends t = List.rev t.log

(* ----------------------------------------------------- post-run checks *)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let record_err r what =
  fail "%s: %s->%s sent@%d ready@%d delivered@%d" what
    (Pid.to_string r.sr_from) (Pid.to_string r.sr_to) r.sr_sent_at r.sr_ready_at
    r.sr_delivered_at

let check_partial_synchrony t =
  let cfg = t.cfg in
  let rec go = function
    | [] -> Ok ()
    | r :: rest ->
        if r.sr_sent_at >= cfg.gst && r.sr_ready_at < 0 then
          record_err r "post-GST message dropped"
        else if r.sr_sent_at >= cfg.gst && r.sr_ready_at > r.sr_sent_at + cfg.delta
        then record_err r "post-GST delivery bound exceeded"
        else if r.sr_ready_at >= 0 && r.sr_ready_at <= r.sr_sent_at then
          record_err r "message receivable in its own send step"
        else if r.sr_delivered_at >= 0 && r.sr_ready_at < 0 then
          record_err r "dropped message delivered"
        else if r.sr_delivered_at >= 0 && r.sr_delivered_at < r.sr_ready_at then
          record_err r "delivered before ready"
        else go rest
  in
  go t.log

let check_crash_isolation t ~pattern =
  let rec go = function
    | [] -> Ok ()
    | r :: rest ->
        if
          r.sr_delivered_at >= 0
          && r.sr_delivered_at >= Failure_pattern.crash_time pattern r.sr_to
        then record_err r "crashed receiver observed a message"
        else go rest
  in
  go t.log

let undelivered_ready t ~by =
  List.filter
    (fun r -> r.sr_ready_at >= 0 && r.sr_ready_at <= by && r.sr_delivered_at < 0)
    (sends t)
