open Kernel

type mode = Common_timeout | Per_target

type params = { period : int; timeout0 : int; timeout_inc : int }

let default_params = { period = 6; timeout0 = 4; timeout_inc = 8 }

let check_params p =
  if p.period <= 0 then invalid_arg "Heartbeat: period must be > 0";
  if p.timeout0 <= 0 then invalid_arg "Heartbeat: timeout0 must be > 0";
  if p.timeout_inc <= 0 then invalid_arg "Heartbeat: timeout_inc must be > 0"

type t = {
  hb_name : string;
  n : int;
  mode : mode;
  params : params;
  link : unit Link.t;
  (* Per-observer local state, indexed [me][target]. Only [me]'s steps
     ever touch row [me], so rows are process-local despite living in
     one structure. *)
  last_seen : int array array;
  timeout : int array array;
  suspected : bool array array;
  tick : Timer.Periodic.t array;
  mutable logs : (int * Pid.Set.t) list array; (* newest first, per observer *)
  (* planted mutants: each disables one load-bearing mechanism of
     Algorithm 2.7 *)
  mutable timeout_never_increased : bool;
  mutable suspected_not_restored : bool;
  m_suspicions : Obs.Metrics.counter;
  m_restores : Obs.Metrics.counter;
  m_raises : Obs.Metrics.counter;
  m_beats : Obs.Metrics.counter;
}

let family = function
  | Common_timeout -> "hb_ev_perfect"
  | Per_target -> "hb_ev_strong"

let create ~name ~n_plus_1 ~mode ?(params = default_params) ~net () =
  check_params params;
  let fam = family mode in
  Detector.record_make ~family:fam ~stab_time:net.Link.gst;
  let label what = Printf.sprintf "hb.%s{family=%s}" what fam in
  {
    hb_name = name;
    n = n_plus_1;
    mode;
    params;
    link = Link.create ~name ~n_plus_1 ~config:net ();
    last_seen = Array.make_matrix n_plus_1 n_plus_1 0;
    timeout = Array.make_matrix n_plus_1 n_plus_1 params.timeout0;
    suspected = Array.make_matrix n_plus_1 n_plus_1 false;
    tick = Array.init n_plus_1 (fun _ -> Timer.Periodic.create ~period:params.period);
    logs = Array.make n_plus_1 [ (0, Pid.Set.empty) ];
    timeout_never_increased = false;
    suspected_not_restored = false;
    m_suspicions = Obs.Metrics.counter (label "suspicions");
    m_restores = Obs.Metrics.counter (label "restores");
    m_raises = Obs.Metrics.counter (label "timeout_raises");
    m_beats = Obs.Metrics.counter (label "heartbeats");
  }

let unsafe_plant t = function
  | Mutant.Hb_timeout_never_increased -> t.timeout_never_increased <- true
  | Mutant.Hb_suspected_not_restored -> t.suspected_not_restored <- true
  | _ -> ()

let link t = t.link

let suspected_set t me =
  let s = ref Pid.Set.empty in
  for q = 0 to t.n - 1 do
    if t.suspected.(me).(q) then s := Pid.Set.add q !s
  done;
  !s

let log_change t me now =
  t.logs.(me) <- (now, suspected_set t me) :: t.logs.(me)

let raise_timeout t me q =
  if not t.timeout_never_increased then begin
    Obs.Metrics.incr t.m_raises;
    match t.mode with
    | Per_target -> t.timeout.(me).(q) <- t.timeout.(me).(q) + t.params.timeout_inc
    | Common_timeout ->
        (* one adaptive timeout per observer: a false suspicion of any
           target raises the timeout for all of them *)
        for p = 0 to t.n - 1 do
          t.timeout.(me).(p) <- t.timeout.(me).(p) + t.params.timeout_inc
        done
  end

let on_heartbeat t ~me ~from ~now =
  t.last_seen.(me).(from) <- now;
  if t.suspected.(me).(from) then begin
    (* the suspicion was false: learn from the mistake (Algorithm 2.7's
       delay += Delta) and restore the process *)
    raise_timeout t me from;
    if not t.suspected_not_restored then begin
      Obs.Metrics.incr t.m_restores;
      t.suspected.(me).(from) <- false;
      log_change t me now
    end
  end

let scan_timeouts t ~me ~now =
  for q = 0 to t.n - 1 do
    if
      q <> me
      && (not t.suspected.(me).(q))
      && now - t.last_seen.(me).(q) > t.timeout.(me).(q)
    then begin
      Obs.Metrics.incr t.m_suspicions;
      t.suspected.(me).(q) <- true;
      log_change t me now
    end
  done

(* The monitor fiber: one poll step per iteration (which also yields the
   time), plus [n+1] send steps whenever the heartbeat period is due.
   Without [until] it runs forever — worlds containing it never quiesce,
   so runs are horizon-bounded. It is no [Sim.daemon]: the suspicions it
   keeps changing are what detector runs observe. [until]
   (polled once per iteration, between scheduler steps) lets a driver
   wind the monitor down once the protocol it serves has finished, so
   the run can quiesce instead of spending the whole horizon. *)
let fiber ?(until = fun () -> false) t ~me () =
  let rec loop () =
    let now, msgs = Link.poll_now t.link ~me in
    List.iter (fun (from, ()) -> on_heartbeat t ~me ~from ~now) msgs;
    if Timer.Periodic.due t.tick.(me) ~now then begin
      Obs.Metrics.incr t.m_beats;
      Link.broadcast t.link ()
    end;
    scan_timeouts t ~me ~now;
    if not (until ()) then loop ()
  in
  loop ()

(* Live query surface: H(p, t) for the *current* t only. Protocol runs
   query through this; validation replays recorded query values against
   {!to_detector}, whose history reconstructs exactly what the live
   source showed at every step (state changes are logged with their
   times, and at most one step happens per time). *)
let source t =
  Sim.source
    ~name:t.hb_name
    ~sample:(fun p _time -> suspected_set t p)
    ~render:(fun v -> Format.asprintf "%a" Pid.Set.pp v)
    ~equal:Pid.Set.equal
    ~id:Sim.Witness.pid_set

let leader_of_set ~n_plus_1 me suspected =
  let rec first q =
    if q >= n_plus_1 then me
    else if not (Pid.Set.mem q suspected) then q
    else first (q + 1)
  in
  first 0

(* Min-unsuspected leader, matching [Pairwise.omega_of_ev_perfect] (same
   ">omega" name, same fallback), so live queries replay against the
   post-run [omega_of_ev_perfect (to_detector t)] history. *)
let leader_source t =
  Sim.source
    ~name:(t.hb_name ^ ">omega")
    ~sample:(fun p _time -> leader_of_set ~n_plus_1:t.n p (suspected_set t p))
    ~render:(fun v -> Format.asprintf "%a" Pid.pp v)
    ~equal:Pid.equal
    ~id:Sim.Witness.pid

let history_at log time =
  let rec find = function
    | [] -> Pid.Set.empty
    | (at, set) :: older -> if at <= time then set else find older
  in
  find log

let to_detector t =
  let logs = Array.copy t.logs in
  {
    Detector.name = t.hb_name;
    history = (fun p time -> history_at logs.(p) time);
    pp = Pid.Set.pp;
    equal = Pid.Set.equal;
    id = Sim.Witness.pid_set;
  }

let last_change t p = match t.logs.(p) with [] -> 0 | (at, _) :: _ -> at

let stabilized_at t ~only =
  let worst = ref 0 in
  for p = 0 to t.n - 1 do
    if only p then worst := max !worst (last_change t p)
  done;
  !worst

let stabilization_window ~min_tail t ~pattern ~horizon =
  let stab_by =
    max
      (stabilized_at t ~only:(Failure_pattern.is_correct pattern) + 1)
      (Failure_pattern.max_crash_time pattern + 1)
  in
  if stab_by > horizon - min_tail then
    Error
      (Printf.sprintf
         "no stabilization window: last suspicion change at %d, horizon %d \
          leaves a tail of %d < %d"
         (stab_by - 1) horizon
         (max 0 (horizon - stab_by + 1))
         min_tail)
  else Ok stab_by
