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

(* One receiver's mailbox, with its step labels and its poll step built
   once, as [Sim.source] builds its query step. *)
type 'm mailbox = {
  send_kind : Sim.kind;
  recv_kind : Sim.kind;
  mutable inbox : 'm envelope list; (* undelivered, newest send first *)
  mutable ready : (Pid.t * 'm) list; (* [sift]'s delivered list *)
  receive : Sim.ctx -> int * (Pid.t * 'm) list; (* the step [poll_now] takes *)
}

(* A link counts through the registry of the domain that created it,
   taken once, as [Memory.Register] does. *)
type 'm t = {
  link_name : string;
  cfg : config;
  boxes : 'm mailbox array;
  rng : Rng.t; (* re-seeded per message by [fate] *)
  mutable log : send_record list; (* newest first *)
  metrics : Obs.Metrics.registry;
  m_sent : Obs.Metrics.counter; (* [receive] holds the delivered one *)
  m_dropped : Obs.Metrics.counter;
  m_delayed : Obs.Metrics.counter;
}

(* One pass over an inbox, newest first, at time [now]: a ready message
   is marked delivered and consed onto [acc], so [acc] ends oldest
   first; the waiting ones are rebuilt on the way back in their order,
   sharing whatever tail is left whole. Returns the waiting list and
   leaves the delivered one in [box.ready]. *)
let rec sift box now acc = function
  | [] ->
      box.ready <- acc;
      []
  | env :: older as inbox ->
      let r = env.env_rec in
      if r.sr_ready_at <= now then begin
        r.sr_delivered_at <- now;
        sift box now ((r.sr_from, env.env_payload) :: acc) older
      end
      else
        let waiting = sift box now acc older in
        if waiting == older then inbox else env :: waiting

(* Arrival order is send order filtered by readiness: stable and
   deterministic given the schedule. The step's time is returned too:
   timeout-driven protocols need [now] on every iteration, and charging
   a second step for it would double their step cost. *)
let receive metrics m_delivered box ~me ctx =
  if not (Pid.equal ctx.Sim.pid me) then
    invalid_arg "Link.poll: polling another process's mailbox";
  let now = ctx.Sim.now in
  match box.inbox with
  | [] -> (now, [])
  | inbox ->
      box.inbox <- sift box now [] inbox;
      let msgs = box.ready in
      box.ready <- [];
      Obs.Metrics.add_in metrics m_delivered (List.length msgs);
      (now, msgs)

let create ~name ~n_plus_1 ~config () =
  check_config config;
  let label what = Printf.sprintf "net.link.%s{link=%s}" what name in
  let metrics = Obs.Metrics.registry () in
  let m_delivered = Obs.Metrics.counter (label "delivered") in
  let mailbox me =
    (* Both labelled with the mailbox object, so independence analysis
       sees a send to and a poll of one mailbox as conflicting. *)
    let obj = Printf.sprintf "%s->%s" name (Pid.to_string me) in
    let rec box =
      {
        send_kind = Sim.Send { obj };
        recv_kind = Sim.Recv { obj };
        inbox = [];
        ready = [];
        receive = (fun ctx -> receive metrics m_delivered box ~me ctx);
      }
    in
    box
  in
  {
    link_name = name;
    cfg = config;
    boxes = Array.init n_plus_1 mailbox;
    rng = Rng.create 0;
    log = [];
    metrics;
    m_sent = Obs.Metrics.counter (label "sent");
    m_dropped = Obs.Metrics.counter (label "dropped");
    m_delayed = Obs.Metrics.counter (label "delayed");
  }

let name t = t.link_name
let config t = t.cfg

(* Pure per-message randomness: the same odd-constant mixing as
   [Detectors.Detector.Chaos.rng], keyed so distinct (sender, dest,
   time) triples give independent streams. The link's one generator
   is re-seeded with the key, so it draws what [Rng.create key] would. *)
let reseed t ~from ~to_ ~time =
  Rng.reseed t.rng
    ((t.cfg.link_seed * 0x2545F491)
    lxor ((from + 1) * 0x9E3779B9)
    lxor ((to_ + 1) * 0xC2B2AE35)
    lxor ((time + 1) * 0x85EBCA6B))

(* The message's fate, decided at send time [time]: its ready time, or
   -1 if it is dropped. After GST every message is delivered within
   [delta]; before GST it may be dropped (probability [loss_pct]%) or
   delayed by up to [pre_delay] extra steps. Ready times are always >=
   time + 1: a message is never receivable in the step that sent it.
   With [delta = 1] the post-GST draw is [Rng.int r 1 = 0], so nothing
   is drawn for it. *)
let fate t ~from ~to_ ~time =
  let cfg = t.cfg in
  if time >= cfg.gst then
    if cfg.delta = 1 then time + 1
    else begin
      reseed t ~from ~to_ ~time;
      time + 1 + Rng.int t.rng cfg.delta
    end
  else begin
    reseed t ~from ~to_ ~time;
    if Rng.int t.rng 100 < cfg.loss_pct then -1
    else time + 1 + Rng.int t.rng (cfg.pre_delay + 1)
  end

let send t ~to_ m =
  Sim.atomic t.boxes.(to_).send_kind (fun ctx ->
      let from = ctx.Sim.pid and time = ctx.Sim.now in
      let ready = fate t ~from ~to_ ~time in
      let r =
        {
          sr_from = from;
          sr_to = to_;
          sr_sent_at = time;
          sr_ready_at = ready;
          sr_delivered_at = -1;
        }
      in
      t.log <- r :: t.log;
      Obs.Metrics.add_in t.metrics t.m_sent 1;
      if ready < 0 then Obs.Metrics.add_in t.metrics t.m_dropped 1
      else begin
        if ready > time + 1 then Obs.Metrics.add_in t.metrics t.m_delayed 1;
        let box = t.boxes.(to_) in
        box.inbox <- { env_payload = m; env_rec = r } :: box.inbox
      end)

let broadcast t m =
  for to_ = 0 to Array.length t.boxes - 1 do
    send t ~to_ m
  done

let poll_now t ~me =
  let box = t.boxes.(me) in
  Sim.atomic box.recv_kind box.receive

let poll t ~me = snd (poll_now t ~me)

let in_flight t pid = List.length t.boxes.(pid).inbox
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
  (* folding the newest-first log leaves the residue oldest first *)
  List.fold_left
    (fun acc r ->
      if r.sr_ready_at >= 0 && r.sr_ready_at <= by && r.sr_delivered_at < 0
      then r :: acc
      else acc)
    [] t.log
