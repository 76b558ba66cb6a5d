(* Reliable async messaging. Steps keep their historical [Write] labels
   (not [Send]/[Recv]): the independence relation treats both the same,
   and keeping the labels preserves DPOR schedule fingerprints for every
   existing scenario golden and bench baseline; each mailbox's label is
   built once, at [create]. The delivery log is a
   flat int array (3 slots per delivered message, grown by doubling) so
   the hot path stays allocation-light for the ABD sweeps. *)

type 'm t = {
  kinds : Sim.kind array; (* per destination: the mailbox's step label *)
  mailboxes : (Pid.t * int * 'm) Queue.t array; (* sender, sent_at, payload *)
  mutable dlog : int array; (* to, sent_at, delivered_at triples *)
  mutable dlen : int; (* used slots in [dlog] *)
  m_sent : Obs.Metrics.counter;
  m_delivered : Obs.Metrics.counter;
  m_depth : Obs.Metrics.gauge array;
}

let create ~name ~n_plus_1 =
  {
    kinds =
      Array.init n_plus_1 (fun p ->
          Sim.Write { obj = Printf.sprintf "%s->%s" name (Pid.to_string p) });
    mailboxes = Array.init n_plus_1 (fun _ -> Queue.create ());
    dlog = [||];
    dlen = 0;
    m_sent = Obs.Metrics.counter (Printf.sprintf "net.sent{net=%s}" name);
    m_delivered =
      Obs.Metrics.counter (Printf.sprintf "net.delivered{net=%s}" name);
    m_depth =
      Array.init n_plus_1 (fun p ->
          Obs.Metrics.gauge
            (Printf.sprintf "net.mailbox_depth{net=%s,pid=p%d}" name (p + 1)));
  }

let log_delivery t ~to_ ~sent_at ~delivered_at =
  if t.dlen + 3 > Array.length t.dlog then begin
    let grown = Array.make (max 24 (2 * Array.length t.dlog)) 0 in
    Array.blit t.dlog 0 grown 0 t.dlen;
    t.dlog <- grown
  end;
  t.dlog.(t.dlen) <- to_;
  t.dlog.(t.dlen + 1) <- sent_at;
  t.dlog.(t.dlen + 2) <- delivered_at;
  t.dlen <- t.dlen + 3

let send t ~to_ m =
  Sim.atomic t.kinds.(to_) (fun ctx ->
      Obs.Metrics.incr t.m_sent;
      Queue.push (ctx.Sim.pid, ctx.Sim.now, m) t.mailboxes.(to_))

let broadcast t m =
  Array.iteri (fun to_ _ -> send t ~to_ m) t.mailboxes

let poll t ~me =
  (* Labelled with the polled mailbox — the same object a send to [me]
     writes — so trace-level independence analysis (Check.Dpor) sees
     send/poll on one mailbox as conflicting and polls of distinct
     mailboxes as commuting. Draining mutates the queue, hence Write. *)
  Sim.atomic t.kinds.(me) (fun ctx ->
      if not (Pid.equal ctx.Sim.pid me) then
        invalid_arg "Network.poll: polling another process's mailbox";
      let q = t.mailboxes.(ctx.Sim.pid) in
      Obs.Metrics.set t.m_depth.(me) (float_of_int (Queue.length q));
      let now = ctx.Sim.now in
      let rec drain acc count =
        match Queue.take_opt q with
        | Some (from, sent_at, m) ->
            log_delivery t ~to_:me ~sent_at ~delivered_at:now;
            drain ((from, m) :: acc) (count + 1)
        | None ->
            if count > 0 then Obs.Metrics.incr ~by:count t.m_delivered;
            List.rev acc
      in
      drain [] 0)

let pending t pid = Queue.length t.mailboxes.(pid)

let check_crash_isolation t ~pattern =
  let bad = ref None in
  let i = ref 0 in
  while !bad = None && !i < t.dlen do
    let to_ = t.dlog.(!i)
    and sent_at = t.dlog.(!i + 1)
    and delivered_at = t.dlog.(!i + 2) in
    let crash = Failure_pattern.crash_time pattern to_ in
    if delivered_at >= crash then
      bad :=
        Some
          (Printf.sprintf
             "crashed receiver observed a message: ->%s sent@%d delivered@%d \
              crash@%d"
             (Pid.to_string to_) sent_at delivered_at crash);
    i := !i + 3
  done;
  match !bad with Some msg -> Error msg | None -> Ok ()
