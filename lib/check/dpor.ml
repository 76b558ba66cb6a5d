open Kernel

type stats = {
  executions : int;
  sleep_blocked : int;
  deduped : int;
  races : int;
  backtrack_points : int;
}

type 'a outcome = {
  stats : stats;
  counterexample : (Pid.t list * 'a) option;
}

let unbounded = max_int
let sat_add a b = if a > unbounded - b then unbounded else a + b

let merge_stats a b =
  {
    executions = sat_add a.executions b.executions;
    sleep_blocked = sat_add a.sleep_blocked b.sleep_blocked;
    deduped = sat_add a.deduped b.deduped;
    races = sat_add a.races b.races;
    backtrack_points = sat_add a.backtrack_points b.backtrack_points;
  }

let m_executions = Obs.Metrics.counter "check.dpor.executions"
let m_sleep_blocked = Obs.Metrics.counter "check.dpor.sleep_blocked"
let m_deduped = Obs.Metrics.counter "check.dpor.deduped"
let m_races = Obs.Metrics.counter "check.dpor.races"
let m_backtrack_points = Obs.Metrics.counter "check.dpor.backtrack_points"
let m_exec_steps = Obs.Metrics.histogram "check.dpor.execution_steps"

(* Label-based independence of two prospective steps: see the .mli for
   the rationale, including why queries commute with nothing. *)
let independent p1 k1 p2 k2 =
  (not (Pid.equal p1 p2))
  &&
  match (k1, k2) with
  | Sim.Query _, _ | _, Sim.Query _ -> false
  | Sim.Read _, Sim.Read _ -> true
  | ( (Sim.Read { obj = a } | Sim.Write { obj = a } | Sim.Send { obj = a }
      | Sim.Recv { obj = a } ),
      ( Sim.Read { obj = b } | Sim.Write { obj = b } | Sim.Send { obj = b }
      | Sim.Recv { obj = b } ) ) ->
      not (String.equal a b)
  | (Sim.Output _ | Sim.Input _ | Sim.Nop), _
  | _, (Sim.Output _ | Sim.Input _ | Sim.Nop) ->
      true

(* One position of the exploration stack. [sleep] is fixed at creation
   (it depends only on the path above, which is stable while the node
   is on the stack); [backtrack]/[explored]/[wakeups] grow across
   executions. [wakeups] maps a backtrack pid to the recorded wakeup
   sequence of the race that inserted it; pids inserted without a
   sequence (tail races, fallback insertions) just run free. A wakeup
   sequence is the pids of one reversed race's steps, scheduled
   verbatim — sleep sets bypassed — when its head pid is picked from a
   backtrack set. Slot 0 is the head's own step at the insertion node;
   the tail becomes the next run's prescription. *)
type node = {
  mutable chosen : Pid.t;
  mutable kind : Sim.kind; (* pending kind of [chosen] at this position *)
  enabled : Eset.t; (* before the step, pid order; refreshed in place *)
  mutable backtrack : Pid.Set.t;
  mutable explored : Pid.Set.t;
  mutable wakeups : (Pid.t * Pid.t array) list;
  sleep : Pid.Set.t;
}

(* Fill an enabled-set buffer from the scheduler's pending view. *)
let refresh_enabled es sched =
  Eset.clear es;
  Scheduler.iter_pending sched (fun p k -> Eset.push es p k)

(* Execute one run: follow the prescribed choices in [stack.(0..len-1)],
   extend by consuming the wakeup prescription [presc] (sleep sets
   bypassed — a wakeup sequence exists precisely because the sleep set
   would otherwise suppress a class the reversal must visit), then with
   the first non-sleeping enabled process up to [depth] (pushing new
   nodes), then complete with round-robin. A prescription step whose pid
   is no longer enabled abandons the rest of the prescription and falls
   back to the free extension. Every event goes to [observe] as it
   happens. Returns the checker's verdict, the step count, the stack
   length after extension, and whether the free extension hit an
   all-sleeping enabled set (a provably redundant run). *)
let run_once ~pattern ~horizon ~depth ~stack ~len ~presc ~make ~pend ~observe =
  let procs, checkf = make () in
  let sched_ref = ref None in
  let pos = ref 0 in
  let grown = ref len in
  let blocked = ref false in
  let presc_dead = ref false in
  let rr = Policy.round_robin () in
  let policy ~now ~enabled =
    let i = !pos in
    incr pos;
    if i >= depth || !blocked then rr ~now ~enabled
    else
      let sched =
        match !sched_ref with Some s -> s | None -> assert false
      in
      if i < len then begin
        let nd = match stack.(i) with Some nd -> nd | None -> assert false in
        (* deterministic worlds make this refresh a no-op; it keeps the
           recorded data in sync with the run actually performed *)
        refresh_enabled nd.enabled sched;
        (match Eset.find nd.enabled nd.chosen with
        | Some k -> nd.kind <- k
        | None ->
            invalid_arg
              "Dpor.explore: prescribed process not enabled on replay — \
               make () built a non-deterministic world");
        Some nd.chosen
      end
      else begin
        refresh_enabled pend sched;
        let sleep =
          if i = 0 then Pid.Set.empty
          else
            let parent =
              match stack.(i - 1) with Some nd -> nd | None -> assert false
            in
            let pp = parent.chosen and pk = parent.kind in
            (* a sleeping process keeps sleeping while its pending step
               commutes with the executed one; explored siblings enter
               the child's sleep set the same way *)
            Pid.Set.filter
              (fun q ->
                match Eset.find pend q with
                | Some kq -> independent q kq pp pk
                | None -> false)
              (Pid.Set.union parent.sleep parent.explored)
        in
        let push q kq =
          stack.(i) <-
            Some
              {
                chosen = q;
                kind = kq;
                enabled = Eset.copy pend;
                backtrack = Pid.Set.empty;
                explored = Pid.Set.empty;
                wakeups = [];
                sleep;
              };
          grown := i + 1;
          Some q
        in
        let prescribed =
          let pi = i - len in
          if !presc_dead || pi >= Array.length presc then None
          else
            let q = presc.(pi) in
            match Eset.find pend q with
            | Some kq -> Some (q, kq)
            | None ->
                (* the reversed world diverged from the recording; run
                   the rest of the extension free *)
                presc_dead := true;
                None
        in
        match prescribed with
        | Some (q, kq) -> push q kq
        | None -> (
            let rec first_awake idx =
              if idx >= Eset.size pend then None
              else
                let q = Eset.pid_at pend idx in
                if Pid.Set.mem q sleep then first_awake (idx + 1)
                else Some (q, Eset.kind_at pend idx)
            in
            match first_awake 0 with
            | None ->
                blocked := true;
                rr ~now ~enabled
            | Some (q, kq) -> push q kq)
      end
  in
  let fibers = Run.fibers ~pattern ~procs in
  let sched = Scheduler.observed ~observe ~pattern ~policy ~fibers () in
  sched_ref := Some sched;
  let result =
    Run.of_scheduler sched (Scheduler.run sched ~max_steps:horizon)
  in
  Obs.Metrics.observe_int m_exec_steps result.Run.steps;
  (checkf result, result.Run.steps, !grown, !blocked)

(* ------------------------------------------------ interned steps ----- *)

(* The interned step table. A run is recorded as two int arrays — per
   step, the acting pid and a kind id — and every pass after the run
   reads a label's properties through its id: the shared object it
   names, its access class, the label itself, and per pid the step code
   the fingerprints mix. Objects are interned by name, so a [Send] and
   a [Recv] on one mailbox, or two separately allocated labels naming
   one register, are one object; object 0 is the queries' pseudo-object
   (see [analyze]), which no name maps to. The table lives for one
   [explore] call and only grows. Finding a label's id is a scan of a
   small cache compared by physical equality (the memory and link
   layers build one label per object per world and reuse it), falling
   back to the structural table on a miss — once per label per world —
   so a step costs no hashing and no allocation. *)

let acc_read = 0
let acc_write = 1 (* [Write], [Send], [Recv] *)
let acc_query = 2
let acc_none = 3 (* [Output], [Input], [Nop] *)
let cache_size = 16 (* a power of two *)

(* fills empty cache slots; no step's label is physically this one *)
let no_kind = Sim.Output { label = ""; value = "" }

(* [a] copied into a fresh array of length [len], the rest [fill] *)
let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Per-[explore] buffers: the interned step table, the last run's steps,
   and the flat arrays the fingerprint pass and the race analysis reuse
   for every execution, so the per-run cost is resetting, not
   allocating. [n] is the process count of the world (> every pid),
   fixed by the failure pattern. A clock is a row of [n] ints: step
   [j]'s at [vc.(j * n)], process [q]'s at [proc_clock.(q * n)], object
   [o]'s at [o * n] of [lw_vc]/[r_vc]/[r_pos]. *)
type scratch = {
  n : int;
  kind_ids : (Sim.kind, int) Hashtbl.t; (* structural: label -> kind id *)
  cache_kind : Sim.kind array; (* recently interned labels, compared by == *)
  cache_id : int array; (* their kind ids; -1 = empty slot *)
  mutable cache_next : int; (* next slot to overwrite *)
  obj_ids : (string, int) Hashtbl.t; (* object name -> object id (>= 1) *)
  mutable n_kinds : int;
  mutable k_val : Sim.kind array; (* per kind id: the label *)
  mutable k_obj : int array; (* per kind id: object id; 0 = none/query *)
  mutable k_acc : int array; (* per kind id: access class *)
  mutable k_code : int array; (* per kind id * n + pid: step code; -1 = unset *)
  mutable n_objs : int;
  mutable s_pids : int array; (* per step: acting pid *)
  mutable s_kids : int array; (* per step: kind id *)
  (* Per-object access state, indexed by object id: the Foata levels of
     the fingerprint pass, and the happens-before scan's last write
     ([lw_pos] = -1: none), the join of the reads since it, and per
     process the position of its last such read (-1: none). An absent
     clock is all zeros, which every join leaves unchanged. *)
  mutable o_wlevel : int array; (* level of the last write *)
  mutable o_rlevel : int array; (* max level of the reads since *)
  mutable lw_pos : int array;
  mutable lw_vc : int array;
  mutable r_vc : int array;
  mutable r_pos : int array;
  (* per step of the analysed run, sized to the longest run so far *)
  mutable cap : int;
  mutable vc : int array; (* per step: vector clock *)
  mutable own : int array; (* per step: 1-based own-process index *)
  mutable pos : int array; (* per process: its steps' positions, at q * cap *)
  mutable vseq : int array; (* positions of one race's wakeup sequence *)
  pos_len : int array; (* per process: its step count *)
  proc_clock : int array; (* per process: clock after its last step *)
  cand : int array; (* race candidate positions for one step *)
  mutable n_cand : int;
}

let make_scratch ~n =
  let objs = 8 and kinds = 16 in
  {
    n;
    kind_ids = Hashtbl.create 64;
    cache_kind = Array.make cache_size no_kind;
    cache_id = Array.make cache_size (-1);
    cache_next = 0;
    obj_ids = Hashtbl.create 16;
    n_kinds = 0;
    k_val = Array.make kinds Sim.Nop;
    k_obj = Array.make kinds 0;
    k_acc = Array.make kinds acc_none;
    k_code = Array.make (kinds * n) (-1);
    n_objs = 1;
    s_pids = Array.make 256 0;
    s_kids = Array.make 256 0;
    o_wlevel = Array.make objs 0;
    o_rlevel = Array.make objs 0;
    lw_pos = Array.make objs (-1);
    lw_vc = Array.make (objs * n) 0;
    r_vc = Array.make (objs * n) 0;
    r_pos = Array.make (objs * n) (-1);
    cap = 0;
    vc = [||];
    own = [||];
    pos = [||];
    vseq = [||];
    pos_len = Array.make n 0;
    proc_clock = Array.make (n * n) 0;
    cand = Array.make (2 * n) 0;
    n_cand = 0;
  }

(* A new object id, its state fresh (no access yet). *)
let add_obj s =
  let o = s.n_objs in
  if o = Array.length s.lw_pos then begin
    let cap = 2 * o and n = s.n in
    s.o_wlevel <- grow s.o_wlevel cap 0;
    s.o_rlevel <- grow s.o_rlevel cap 0;
    s.lw_pos <- grow s.lw_pos cap (-1);
    s.lw_vc <- grow s.lw_vc (cap * n) 0;
    s.r_vc <- grow s.r_vc (cap * n) 0;
    s.r_pos <- grow s.r_pos (cap * n) (-1)
  end;
  s.n_objs <- o + 1;
  o

let obj_id s name =
  match Hashtbl.find_opt s.obj_ids name with
  | Some o -> o
  | None ->
      let o = add_obj s in
      Hashtbl.replace s.obj_ids name o;
      o

let add_kind s k =
  let id = s.n_kinds in
  if id = Array.length s.k_acc then begin
    let cap = 2 * id in
    s.k_val <- grow s.k_val cap Sim.Nop;
    s.k_obj <- grow s.k_obj cap 0;
    s.k_acc <- grow s.k_acc cap acc_none;
    s.k_code <- grow s.k_code (cap * s.n) (-1)
  end;
  let acc, obj =
    match k with
    | Sim.Read { obj } -> (acc_read, obj_id s obj)
    | Sim.Write { obj } | Sim.Send { obj } | Sim.Recv { obj } ->
        (acc_write, obj_id s obj)
    | Sim.Query _ -> (acc_query, 0)
    | Sim.Output _ | Sim.Input _ | Sim.Nop -> (acc_none, 0)
  in
  s.k_val.(id) <- k;
  s.k_obj.(id) <- obj;
  s.k_acc.(id) <- acc;
  s.n_kinds <- id + 1;
  Hashtbl.replace s.kind_ids k id;
  id

let rec cached s k i =
  if i = cache_size then -1
  else if s.cache_kind.(i) == k then s.cache_id.(i)
  else cached s k (i + 1)

(* The kind id of label [k]. *)
let intern s k =
  let id = cached s k 0 in
  if id >= 0 then id
  else begin
    let id =
      match Hashtbl.find_opt s.kind_ids k with
      | Some id -> id
      | None -> add_kind s k
    in
    let slot = s.cache_next in
    s.cache_kind.(slot) <- k;
    s.cache_id.(slot) <- id;
    s.cache_next <- (slot + 1) land (cache_size - 1);
    id
  end

(* [Hashtbl.hash (pid, label)], computed once per (kind id, pid). *)
let step_code s kid p =
  let i = (kid * s.n) + p in
  let c = s.k_code.(i) in
  if c >= 0 then c
  else begin
    let c = Hashtbl.hash (p, s.k_val.(kid)) land max_int in
    s.k_code.(i) <- c;
    c
  end

(* The observer of a DPOR run: store each step's pid and kind id at its
   position (step times are 1, 2, ...), growing the arrays as needed.
   The fingerprint and the race analysis read them after the run. *)
let store_step s = function
  | Trace.Step { pid; time; kind; _ } ->
      let i = time - 1 in
      if i >= Array.length s.s_pids then begin
        let cap = Int.max (i + 1) (2 * Array.length s.s_pids) in
        s.s_pids <- grow s.s_pids cap 0;
        s.s_kids <- grow s.s_kids cap 0
      end;
      s.s_pids.(i) <- pid;
      s.s_kids.(i) <- intern s kind
  | Trace.Crash _ -> ()

(* ------------------------------------------- schedule fingerprints ----- *)

(* Canonical keys for window prefixes up to Mazurkiewicz equivalence:
   two prefixes that differ only in the order of independent steps get
   the same key. Per step the key material is (Foata level, step code):
   the Foata level is 1 + the max level of any earlier dependent step
   (a pure function of the trace class), the step code hashes the
   (pid, label) pair. Items are combined commutatively (sum of mixed
   items), so no sorting is needed and every prefix length of a window
   is keyed in one O(len^2) pass. Equivalent prefixes collide by
   construction; unequal prefixes collide with ~2^-62 probability,
   which the differential battery cross-checks empirically. *)

let fp_mix x =
  let x = x lxor (x lsr 29) in
  let x = x * 0x35CD5A21 in
  let x = x lxor (x lsr 31) in
  let x = x * 0x4F6CDD1D in
  x lxor (x lsr 28)

let fp_item ~level ~code = fp_mix (code + (level * 0x9E3779B9))
let fp_key ~len ~hash = fp_mix (hash lxor (len * 0x2545F491)) land max_int

(* Per-call fingerprint scratch: levels/items/prefix-hashes of the last
   executed window, reused to key the next candidate prefix in O(len)
   (its strict prefix is shared with the last run), plus the
   per-process levels of the O(steps) full-run pass (its per-object
   levels live in the scratch). *)
type fp_state = {
  mutable fp_level : int array; (* per window position: Foata level *)
  mutable fp_hash : int array; (* fp_hash.(l) keys the l-step prefix *)
  fr_pid_level : int array; (* per process: level of its last step *)
  seen : (int, unit) Hashtbl.t;
}

let make_fp_state ~n ~depth =
  let cap = max depth 1 in
  {
    fp_level = Array.make cap 0;
    fp_hash = Array.make (cap + 1) 0;
    fr_pid_level = Array.make n 0;
    seen = Hashtbl.create 1024;
  }

(* Recompute level/item/hash for window position [t] given positions
   [0..t-1] are current. *)
let fp_set fp s ~stack t =
  let nd = match stack.(t) with Some nd -> nd | None -> assert false in
  let level = ref 1 in
  for u = 0 to t - 1 do
    let nu = match stack.(u) with Some nd -> nd | None -> assert false in
    if
      (not (independent nu.chosen nu.kind nd.chosen nd.kind))
      && fp.fp_level.(u) >= !level
    then level := fp.fp_level.(u) + 1
  done;
  fp.fp_level.(t) <- !level;
  fp.fp_hash.(t + 1) <-
    fp.fp_hash.(t)
    + fp_item ~level:!level ~code:(step_code s (intern s nd.kind) nd.chosen)

(* Key every prefix of the executed window and record it as seen. *)
let fp_record fp s ~stack ~grown =
  for t = 0 to grown - 1 do
    fp_set fp s ~stack t;
    Hashtbl.replace fp.seen (fp_key ~len:(t + 1) ~hash:fp.fp_hash.(t + 1)) ()
  done

(* Key the WHOLE executed run — window and round-robin tail — and
   record it as seen. Returns whether the key was already present:
   this run is then a duplicate of an executed one up to trace
   equivalence. Two inequivalent windows can still complete into the
   same run class (the tail reorders the leftover independent steps),
   which path-local sleep sets cannot see; the caller suppresses the
   duplicate's race analysis, since every race it contains is
   equivalent to one in the original run, whose analysis already
   inserted the reversals.

   Levels come from an O(steps) incremental pass over the label-based
   dependence relation: a step depends on its process's previous step
   and the last query (queries conflict with everything, so a query
   itself tops every level so far); a read also on the last write to
   its object; a write also on that object's reads. *)
let fp_full_run fp s ~m =
  let pid_level = fp.fr_pid_level in
  for q = 0 to s.n - 1 do
    pid_level.(q) <- 0
  done;
  let wlevel = s.o_wlevel and rlevel = s.o_rlevel in
  for o = 0 to s.n_objs - 1 do
    wlevel.(o) <- 0;
    rlevel.(o) <- 0
  done;
  let pids = s.s_pids and kids = s.s_kids in
  let k_acc = s.k_acc and k_obj = s.k_obj in
  let last_query = ref 0 and global_max = ref 0 in
  let hash = ref 0 in
  for t = 0 to m - 1 do
    let p = pids.(t) and kid = kids.(t) in
    let acc = k_acc.(kid) and o = k_obj.(kid) in
    let base = Int.max pid_level.(p) !last_query in
    let level =
      if acc = acc_query then begin
        let l = 1 + !global_max in
        last_query := l;
        l
      end
      else if acc = acc_read then begin
        let l = 1 + Int.max base wlevel.(o) in
        rlevel.(o) <- Int.max rlevel.(o) l;
        l
      end
      else if acc = acc_write then begin
        let l = 1 + Int.max base (Int.max wlevel.(o) rlevel.(o)) in
        wlevel.(o) <- l;
        rlevel.(o) <- 0;
        l
      end
      else 1 + base
    in
    pid_level.(p) <- level;
    if level > !global_max then global_max := level;
    hash := !hash + fp_item ~level ~code:(step_code s kid p)
  done;
  let key = fp_key ~len:m ~hash:!hash in
  let dup = Hashtbl.mem fp.seen key in
  Hashtbl.replace fp.seen key ();
  dup

(* Has the candidate prefix [stack.(0..len-1)] — the last run's prefix
   with a retargeted final step — already been executed up to trace
   equivalence? Only the final position changed, so one fp_set call
   refreshes the key. *)
let fp_seen_candidate fp s ~stack ~len =
  fp_set fp s ~stack (len - 1);
  Hashtbl.mem fp.seen (fp_key ~len ~hash:fp.fp_hash.(len))

(* ------------------------------------------------------ race analysis --- *)

(* Size the per-step buffers for an [m]-step run. Their contents are
   rewritten by every analysis before they are read, so a regrown
   buffer starts blank. *)
let ensure_steps s m =
  if m > s.cap then begin
    let cap = Int.max m (2 * s.cap) in
    s.cap <- cap;
    s.vc <- Array.make (cap * s.n) 0;
    s.own <- Array.make cap 0;
    s.pos <- Array.make (cap * s.n) 0;
    s.vseq <- Array.make cap 0
  end

(* Reset the process clocks and every object to "no access yet". *)
let reset_access s =
  let n = s.n in
  for i = 0 to (n * n) - 1 do
    s.proc_clock.(i) <- 0
  done;
  for q = 0 to n - 1 do
    s.pos_len.(q) <- 0
  done;
  let lw_vc = s.lw_vc and r_vc = s.r_vc and r_pos = s.r_pos in
  for o = 0 to s.n_objs - 1 do
    s.lw_pos.(o) <- -1;
    for i = o * n to (o * n) + n - 1 do
      lw_vc.(i) <- 0;
      r_vc.(i) <- 0;
      r_pos.(i) <- -1
    done
  done

(* step i happens-before step j (i < j) *)
let hb s i j = s.vc.((j * s.n) + s.s_pids.(i)) >= s.own.(i)

(* the clock row at [dst.(d)] joined with the one at [src.(o)] *)
let join n (dst : int array) d (src : int array) o =
  for q = 0 to n - 1 do
    let v = src.(o + q) in
    if v > dst.(d + q) then dst.(d + q) <- v
  done

let copy_row n (src : int array) o (dst : int array) d =
  for q = 0 to n - 1 do
    dst.(d + q) <- src.(o + q)
  done

let push_cand s p i =
  if s.s_pids.(i) <> p then begin
    s.cand.(s.n_cand) <- i;
    s.n_cand <- s.n_cand + 1
  end

(* The race candidates of a step of [p] accessing object [o] (a write
   when [w]): the last write to it, and for a write also each other
   process's last read since. *)
let candidates_of s p o w =
  if s.lw_pos.(o) >= 0 then push_cand s p s.lw_pos.(o);
  if w then begin
    let n = s.n in
    for q = 0 to n - 1 do
      let r = s.r_pos.((o * n) + q) in
      if q <> p && r >= 0 then push_cand s p r
    done
  end

(* Sort the candidates and drop duplicates (insertion sort: a step has
   at most 2n of them). *)
let sort_cands s =
  let a = s.cand and len = s.n_cand in
  for i = 1 to len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  if len > 1 then begin
    let w = ref 1 in
    for r = 1 to len - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    s.n_cand <- !w
  end

(* Join the step clock at [vc.(c)] with object [o]'s last write, and for
   a write also with its reads since. *)
let join_object s o w c =
  let n = s.n in
  if s.lw_pos.(o) >= 0 then join n s.vc c s.lw_vc (o * n);
  if w then join n s.vc c s.r_vc (o * n)

(* Record step [j] of [p] as the latest access to object [o]. *)
let update s o w p j =
  let n = s.n in
  let c = j * n and b = o * n in
  if w then begin
    let vc = s.vc and lw_vc = s.lw_vc and r_vc = s.r_vc and r_pos = s.r_pos in
    (* a write orders all prior reads before it; clear them so later
       writes race with the write, not stale reads *)
    for q = 0 to n - 1 do
      lw_vc.(b + q) <- vc.(c + q);
      r_vc.(b + q) <- 0;
      r_pos.(b + q) <- -1
    done;
    s.lw_pos.(o) <- j
  end
  else begin
    join n s.r_vc b s.vc c;
    s.r_pos.(b + p) <- j
  end

(* Is the race (i, j) mediated: some k in between with hb(i,k) and
   hb(k,j)? *)
let mediated s i j =
  let n = s.n and vc = s.vc and own = s.own and pids = s.s_pids in
  let pi = pids.(i) and oi = own.(i) and cj = j * n in
  let k = ref (i + 1) and found = ref false in
  while (not !found) && !k < j do
    let kk = !k in
    if vc.((kk * n) + pi) >= oi && vc.(cj + pids.(kk)) >= own.(kk) then
      found := true;
    incr k
  done;
  !found

(* Is [q] a weak initial of the wakeup sequence [vseq.(0..vlen-1)]:
   does [q] act in it, with no earlier step of the sequence
   happening-before its first one? *)
let weak_initial s vlen q =
  let v = s.vseq in
  let t = ref 0 in
  while !t < vlen && s.s_pids.(v.(!t)) <> q do
    incr t
  done;
  !t < vlen
  &&
  let pos_q = v.(!t) in
  let u = ref 0 in
  while !u < !t && not (hb s v.(!u) pos_q) do
    incr u
  done;
  !u >= !t

(* The reversal of the immediate race (i, j): insert backtrack
   alternatives as [analyze] describes. Returns how many were
   inserted. *)
let reverse s ~stack ~depth ~grown i j =
  let n = s.n in
  let pj : Pid.t = s.s_pids.(j) in
  if i >= grown then begin
    (* Both race steps sit in the deterministic round-robin
       tail. The tail of a run is a function of the window
       class representative — specifically of its rotation
       point — so reversing a tail race means finding a window
       class whose representative rotates the tail
       differently. Following bounded-search backtracking
       (Coons–Musuvathi–McKinley) the persistent-set explorer
       offered pid_j at the deepest window node for {e every}
       such race; each offer is a full re-execution, and on
       long tails those rotations dominate the search (they
       are most of the abd configs' executions). The offer is
       kept but bounded: only races whose earlier step falls
       within [tail_reach] scheduler rotations of the window
       boundary trigger it. A deeper race is reached
       step-by-step — each accepted offer rotates the tail,
       moving the race closer to the boundary in the branch
       that re-runs — so the bound trades eager rotation
       enumeration for the incremental pull, not for silence.
       The bound is a heuristic, not a theorem: the
       differential battery (test_dpor_diff) is the evidence
       it preserves verdicts, exactly as it is for the
       persistent-set rule itself. The race is still
       counted. *)
    let tail_reach = n in
    if i < grown + tail_reach && grown > 0 then begin
      let nd =
        match stack.(grown - 1) with Some nd -> nd | None -> assert false
      in
      if Eset.mem nd.enabled pj && not (Pid.Set.mem pj nd.backtrack) then begin
        nd.backtrack <- Pid.Set.add pj nd.backtrack;
        1
      end
      else 0
    end
    else 0
  end
  else begin
    let nd = match stack.(i) with Some nd -> nd | None -> assert false in
    (* v: the reversing witness — j's happens-before ancestors
       among the steps after i (none of which happen-after i,
       or the race would be mediated), then j itself. Steps
       independent of j are deliberately left out: the reversal
       class only needs j's causal prefix moved before i, and a
       bystander-first v would hand the source-set insertion a
       pid that merely permutes independent steps. *)
    let vlen = ref 0 in
    for k = i + 1 to j - 1 do
      if (not (hb s i k)) && hb s k j then begin
        s.vseq.(!vlen) <- k;
        incr vlen
      end
    done;
    s.vseq.(!vlen) <- j;
    let vlen = !vlen + 1 in
    let wi_mem = weak_initial s vlen in
    let covered =
      Pid.Set.exists wi_mem nd.backtrack
      || Pid.Set.exists wi_mem nd.explored
      || Pid.Set.exists wi_mem nd.sleep
    in
    if covered then 0
    else begin
      let q0 : Pid.t = s.s_pids.(s.vseq.(0)) in
      if Eset.mem nd.enabled q0 then begin
        (* q0 is a weak initial of v by construction, so the
           single source-set insertion covers the reversal —
           where the persistent-set explorer scheduled every
           member of E. *)
        let added =
          if Pid.Set.mem q0 nd.backtrack then 0
          else begin
            nd.backtrack <- Pid.Set.add q0 nd.backtrack;
            1
          end
        in
        (* record v as q0's wakeup sequence, window-truncated —
           but only for pure-window races: a crossing race's v
           prescribes tail steps, and pinning those realizes
           boundary alignments as distinct window classes. A
           length-1 sequence prescribes nothing beyond the
           retargeted node itself, so it is not stored. *)
        let wlen = Int.min vlen (depth - i) in
        if j < grown && wlen > 1 then begin
          let ws = Array.init wlen (fun t -> s.s_pids.(s.vseq.(t))) in
          nd.wakeups <- (q0, ws) :: List.remove_assoc q0 nd.wakeups
        end;
        added
      end
      else begin
        (* races whose q0 is not enabled at the insertion node
           keep the lazy persistent-set rule: offering a member
           of E lets the racing step creep into the window over
           subsequent analyses *)
        let c = j * n in
        let in_e q =
          q = pj
          ||
          let cq = s.vc.(c + q) in
          cq >= 1
          && cq - 1 < s.pos_len.(q)
          &&
          let pos = s.pos.((q * s.cap) + cq - 1) in
          pos > i && pos < j
        in
        let e_nonempty = ref false in
        Eset.iter nd.enabled (fun q _ ->
            if (not !e_nonempty) && in_e q then e_nonempty := true);
        let e_nonempty = !e_nonempty in
        let added = ref 0 in
        Eset.iter nd.enabled (fun q _ ->
            if
              ((not e_nonempty) || in_e q)
              && not (Pid.Set.mem q nd.backtrack)
            then begin
              nd.backtrack <- Pid.Set.add q nd.backtrack;
              incr added
            end);
        !added
      end
    end
  end

(* Race analysis over the WHOLE executed run, not just the choice
   window: a race whose later step sits in the deterministic round-robin
   tail still needs a backtracking point at its (controllable) earlier
   step, otherwise a process with a long program can monopolize the
   window and hide every race from the analysis. Backtracking
   alternatives can only be inserted at window positions [0..grown-1].

   Happens-before is tracked with vector clocks over an access model
   derived from step labels: a [Read]/[Write] accesses its named
   object; [Query] writes a pseudo-object (object 0) that every step
   reads (so a query conflicts with everything, and two queries
   conflict); [Nop]/[Output]/[Input] only read the pseudo-object. For
   each step j the race candidates are the per-object last conflicting
   accesses; (i, j) is an immediate race when no intermediate k has
   hb(i,k) && hb(k,j).

   Insertion follows source-set DPOR (Abdulla–Aronis–Jonsson–Sagonas):
   for a window race (i, j), the reversing sequence is
   v = notdep(i) . j — the steps of (i, j) not happens-after i, then j
   itself. If any weak initial of v is already scheduled at node i
   (in backtrack, explored, or sleep), the reversal's class is covered
   and NOTHING is inserted — this is where the persistent-set
   explorer's whole-E insertions went. Otherwise v's first step's pid
   (an initial of v by construction) is inserted together with v as
   its wakeup sequence, so the reversal replays the exact witness
   instead of rediscovering it against the sleep set. Tail races
   (i >= grown) keep the conservative bounded-window offer of pid_j at
   the deepest node (Coons–Musuvathi–McKinley). Returns
   (races, alternatives inserted). *)
let analyze ~scratch:s ~stack ~depth ~grown ~m =
  if m = 0 then (0, 0)
  else begin
    let n = s.n in
    ensure_steps s m;
    reset_access s;
    let races = ref 0 and added = ref 0 in
    for j = 0 to m - 1 do
      let p = s.s_pids.(j) and kid = s.s_kids.(j) in
      (* the step's accesses: its named object (if any) read or written,
         plus the query pseudo-object (written by queries, read by all) *)
      let acc = s.k_acc.(kid) and o = s.k_obj.(kid) in
      let real = acc = acc_read || acc = acc_write in
      let real_w = acc = acc_write and q_w = acc = acc_query in
      (* candidates: last conflicting access per object, before joining
         this step's clock (so they reflect strictly earlier steps) *)
      s.n_cand <- 0;
      if real then candidates_of s p o real_w;
      candidates_of s p 0 q_w;
      sort_cands s;
      (* compute this step's clock *)
      let c = j * n in
      copy_row n s.proc_clock (p * n) s.vc c;
      let own = s.vc.(c + p) + 1 in
      s.own.(j) <- own;
      s.vc.(c + p) <- own;
      if real then join_object s o real_w c;
      join_object s 0 q_w c;
      (* immediate races among the candidates *)
      for ci = 0 to s.n_cand - 1 do
        let i = s.cand.(ci) in
        if not (mediated s i j) then begin
          incr races;
          added := !added + reverse s ~stack ~depth ~grown i j
        end
      done;
      (* update the access tables with this step *)
      if real then update s o real_w p j;
      update s 0 q_w p j;
      copy_row n s.vc c s.proc_clock (p * n);
      s.pos.((p * s.cap) + s.pos_len.(p)) <- j;
      s.pos_len.(p) <- s.pos_len.(p) + 1
    done;
    (!races, !added)
  end

(* Pop to the deepest node with an unexplored, non-sleeping backtrack
   alternative; retarget it and truncate the stack there. False when the
   whole (sub)tree is exhausted. Nodes below [floor] are frozen: branch
   units pass [floor = 1] so their preset root is never retargeted —
   race analysis may offer later root siblings, but each sibling is
   covered by its own unit. *)
let rec next_candidate ~stack ~len ~floor =
  if !len <= floor then false
  else begin
    let nd = match stack.(!len - 1) with Some nd -> nd | None -> assert false in
    nd.explored <- Pid.Set.add nd.chosen nd.explored;
    let cands =
      Pid.Set.diff nd.backtrack (Pid.Set.union nd.explored nd.sleep)
    in
    match Pid.Set.min_elt_opt cands with
    | Some q ->
        nd.chosen <- q;
        (match Eset.find nd.enabled q with
        | Some k -> nd.kind <- k
        | None -> assert false);
        true
    | None ->
        len := !len - 1;
        stack.(!len) <- None;
        next_candidate ~stack ~len ~floor
  end

let explore_loop ~pattern ~depth ~horizon ~make ~budget ~should_stop ~on_phase
    ~stack ~len ~floor =
  let executions = ref 0 and blocked_runs = ref 0 in
  let deduped_runs = ref 0 in
  let races_total = ref 0 and added_total = ref 0 in
  let n = Failure_pattern.n_plus_1 pattern in
  let scratch = make_scratch ~n in
  let fp = make_fp_state ~n ~depth in
  let pend = Eset.create () in
  let presc = ref [||] in
  let snap () =
    {
      executions = !executions;
      sleep_blocked = !blocked_runs;
      deduped = !deduped_runs;
      races = !races_total;
      backtrack_points = !added_total;
    }
  in
  (* Retarget to the next runnable candidate. A candidate without a
     wakeup prescription whose retargeted prefix is trace-equivalent to
     an already-executed one is skipped outright (counted as deduped):
     the equivalent prefix reaches the same state, and the node that
     executed it covers every continuation class over its own lifetime.
     Prescribed candidates are never skipped — their prefix
     deliberately extends beyond the retargeted node. *)
  let rec advance () =
    if next_candidate ~stack ~len ~floor then begin
      let nd =
        match stack.(!len - 1) with Some nd -> nd | None -> assert false
      in
      (match List.assoc_opt nd.chosen nd.wakeups with
      | Some ws ->
          nd.wakeups <- List.remove_assoc nd.chosen nd.wakeups;
          presc := Array.sub ws 1 (Array.length ws - 1)
      | None -> presc := [||]);
      if Array.length !presc = 0 && fp_seen_candidate fp scratch ~stack ~len:!len
      then begin
        incr deduped_runs;
        Obs.Metrics.incr m_deduped;
        advance ()
      end
      else true
    end
    else false
  in
  (* Phase profiling is aggregated per call and reported once at the
     end — the span structure (two phases, always both) is independent
     of how many executions the search needed, which keeps the exported
     span tree byte-identical across -j1/-jN unit orders. *)
  let timed = on_phase <> None in
  let exec_us = ref 0 and analyze_us = ref 0 in
  let clock () = if timed then Obs.Span.now_us () else 0 in
  let rec loop () =
    if !executions >= budget || should_stop () then None
    else begin
      let t0 = clock () in
      let verdict, m, grown, blocked =
        run_once ~pattern ~horizon ~depth ~stack ~len:!len ~presc:!presc
          ~make ~pend ~observe:(store_step scratch)
      in
      if timed then exec_us := !exec_us + (clock () - t0);
      incr executions;
      Obs.Metrics.incr m_executions;
      if blocked then begin
        incr blocked_runs;
        Obs.Metrics.incr m_sleep_blocked
      end;
      match verdict with
      | Error report ->
          Some (List.init (min depth m) (fun i -> scratch.s_pids.(i)), report)
      | Ok () ->
          let t1 = clock () in
          (* Full-run key first: when the program quiesces inside the
             window (m = grown) the run's own window key is the same
             key, and recording it first would flag the run as its own
             duplicate. *)
          let dup = fp_full_run fp scratch ~m in
          fp_record fp scratch ~stack ~grown;
          if dup then begin
            incr deduped_runs;
            Obs.Metrics.incr m_deduped
          end;
          if (not blocked) && not dup then begin
            let races, added =
              analyze ~scratch ~stack ~depth ~grown ~m
            in
            races_total := !races_total + races;
            added_total := !added_total + added;
            Obs.Metrics.incr ~by:races m_races;
            Obs.Metrics.incr ~by:added m_backtrack_points
          end;
          if timed then analyze_us := !analyze_us + (clock () - t1);
          len := grown;
          if advance () then loop () else None
    end
  in
  let counterexample = loop () in
  (match on_phase with
  | Some f ->
      f "dpor.executions" !exec_us;
      f "dpor.race_analysis" !analyze_us
  | None -> ());
  { stats = snap (); counterexample }

let check_budget ~who budget =
  if budget < 0 then invalid_arg (who ^ ": negative budget")

let explore ~pattern ~depth ~horizon ?(budget = unbounded)
    ?(should_stop = fun () -> false) ?on_phase ~make () =
  if depth < 0 then invalid_arg "Dpor.explore: negative depth";
  check_budget ~who:"Dpor.explore" budget;
  let stack = Array.make (max depth 1) None in
  let len = ref 0 in
  explore_loop ~pattern ~depth ~horizon ~make ~budget ~should_stop ~on_phase
    ~stack ~len ~floor:0

let root_branches ~pattern ~make () =
  let procs, _checkf = make () in
  let sched_ref = ref None in
  let seen = ref None in
  let policy ~now:_ ~enabled:_ =
    (match (!seen, !sched_ref) with
    | None, Some sched -> seen := Some (Scheduler.pending sched)
    | _ -> ());
    None
  in
  let fibers = Run.fibers ~pattern ~procs in
  let sched = Scheduler.observed ~pattern ~policy ~fibers () in
  sched_ref := Some sched;
  let (_ : Scheduler.outcome) = Scheduler.run sched ~max_steps:1 in
  match !seen with None -> [] | Some pend -> pend

let explore_branch ~pattern ~depth ~horizon ?(budget = unbounded)
    ?(should_stop = fun () -> false) ?on_phase ~branches ~index
    ~make () =
  if depth < 1 then invalid_arg "Dpor.explore_branch: depth must be >= 1";
  check_budget ~who:"Dpor.explore_branch" budget;
  if index < 0 || index >= List.length branches then
    invalid_arg "Dpor.explore_branch: branch index out of range";
  let chosen, kind = List.nth branches index in
  (* Earlier siblings preset as explored: the subtree runs with exactly
     the sleep sets a serial pass visiting branches left-to-right would
     give it, so equivalence classes already covered by an earlier
     branch's unit are not re-run here. *)
  let explored =
    List.filteri (fun i _ -> i < index) branches
    |> List.map fst |> Pid.Set.of_list
  in
  let stack = Array.make (max depth 1) None in
  stack.(0) <-
    Some
      {
        chosen;
        kind;
        enabled = Eset.of_list branches;
        backtrack = Pid.Set.empty;
        explored;
        wakeups = [];
        sleep = Pid.Set.empty;
      };
  let len = ref 1 in
  explore_loop ~pattern ~depth ~horizon ~make ~budget ~should_stop ~on_phase
    ~stack ~len ~floor:1
