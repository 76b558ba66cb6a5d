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

(* A wakeup sequence: the (pid, pending-step label) steps of one
   reversed race, scheduled verbatim — sleep sets bypassed — when its
   head pid is picked from a backtrack set. Slot 0 is the head's own
   step at the insertion node; the tail becomes the next run's
   prescription. *)
type wstep = { w_pid : Pid.t; w_kind : Sim.kind }

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
   sequence (tail races, fallback insertions) just run free. *)
type node = {
  mutable chosen : Pid.t;
  mutable kind : Sim.kind; (* pending kind of [chosen] at this position *)
  enabled : Eset.t; (* before the step, pid order; refreshed in place *)
  mutable backtrack : Pid.Set.t;
  mutable explored : Pid.Set.t;
  mutable wakeups : (Pid.t * wstep array) list;
  sleep : Pid.Set.t;
}

(* Fiber names are a pure function of (pid, thread index); intern them
   so re-spawning the world for every execution stops formatting. The
   table is domain-local because explore runs concurrently in Exec.Pool
   worker domains and stdlib Hashtbl is not domain-safe; each domain
   interning its own copy still amortizes. *)
let fiber_names_key : (int, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let fiber_name pid j =
  let names = Domain.DLS.get fiber_names_key in
  let key = (Pid.to_int pid lsl 16) lor j in
  match Hashtbl.find_opt names key with
  | Some s -> s
  | None ->
      let s = Format.asprintf "%a/t%d" Pid.pp pid j in
      Hashtbl.replace names key s;
      s

let spawn_fibers ~pattern ~procs =
  Pid.all ~n_plus_1:(Failure_pattern.n_plus_1 pattern)
  |> List.concat_map (fun pid ->
         List.mapi
           (fun j body -> Fiber.create ~pid ~name:(fiber_name pid j) body)
           (procs pid))

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
            let q = presc.(pi).w_pid in
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
  let fibers = spawn_fibers ~pattern ~procs in
  let sched = Scheduler.observed ~observe ~pattern ~policy ~fibers () in
  sched_ref := Some sched;
  let result =
    Run.of_scheduler sched (Scheduler.run sched ~max_steps:horizon)
  in
  Obs.Metrics.observe_int m_exec_steps result.Run.steps;
  (checkf result, result.Run.steps, !grown, !blocked)

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
   access-category tables of the O(steps) full-run pass. *)
type fp_state = {
  mutable fp_level : int array; (* per window position: Foata level *)
  mutable fp_hash : int array; (* fp_hash.(l) keys the l-step prefix *)
  fr_pid_level : int array; (* per process: level of its last step *)
  fr_objs : (string, int * int) Hashtbl.t;
      (* per object: (last-write level, max read level) *)
  seen : (int, unit) Hashtbl.t;
}

let make_fp_state ~n ~depth =
  let cap = max depth 1 in
  {
    fp_level = Array.make cap 0;
    fp_hash = Array.make (cap + 1) 0;
    fr_pid_level = Array.make n 0;
    fr_objs = Hashtbl.create 16;
    seen = Hashtbl.create 1024;
  }

let step_code pid kind = Hashtbl.hash (Pid.to_int pid, kind) land max_int

(* Recompute level/item/hash for window position [t] given positions
   [0..t-1] are current. *)
let fp_set fp ~stack t =
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
    fp.fp_hash.(t) + fp_item ~level:!level ~code:(step_code nd.chosen nd.kind)

(* Key every prefix of the executed window and record it as seen. *)
let fp_record fp ~stack ~grown =
  for t = 0 to grown - 1 do
    fp_set fp ~stack t;
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
let fp_full_run fp ~s_pids ~s_kinds ~m =
  Array.fill fp.fr_pid_level 0 (Array.length fp.fr_pid_level) 0;
  Hashtbl.reset fp.fr_objs;
  let last_query = ref 0 and global_max = ref 0 in
  let hash = ref 0 in
  for t = 0 to m - 1 do
    let p = s_pids.(t) and k = s_kinds.(t) in
    let base = max fp.fr_pid_level.(p) !last_query in
    let level =
      1
      +
      match k with
      | Sim.Query _ -> !global_max
      | Sim.Read { obj } -> (
          match Hashtbl.find_opt fp.fr_objs obj with
          | Some (w, _) -> max base w
          | None -> base)
      | Sim.Write { obj } | Sim.Send { obj } | Sim.Recv { obj } -> (
          match Hashtbl.find_opt fp.fr_objs obj with
          | Some (w, r) -> max base (max w r)
          | None -> base)
      | Sim.Output _ | Sim.Input _ | Sim.Nop -> base
    in
    (match k with
    | Sim.Query _ -> last_query := level
    | Sim.Read { obj } ->
        let w, r =
          match Hashtbl.find_opt fp.fr_objs obj with
          | Some wr -> wr
          | None -> (0, 0)
        in
        Hashtbl.replace fp.fr_objs obj (w, max r level)
    | Sim.Write { obj } | Sim.Send { obj } | Sim.Recv { obj } ->
        Hashtbl.replace fp.fr_objs obj (level, 0)
    | Sim.Output _ | Sim.Input _ | Sim.Nop -> ());
    fp.fr_pid_level.(p) <- level;
    if level > !global_max then global_max := level;
    hash := !hash + fp_item ~level ~code:(Hashtbl.hash (p, k) land max_int)
  done;
  let key = fp_key ~len:m ~hash:!hash in
  let dup = Hashtbl.mem fp.seen key in
  Hashtbl.replace fp.seen key ();
  dup

(* Has the candidate prefix [stack.(0..len-1)] — the last run's prefix
   with a retargeted final step — already been executed up to trace
   equivalence? Only the final position changed, so one fp_set call
   refreshes the key. *)
let fp_seen_candidate fp ~stack ~len =
  fp_set fp ~stack (len - 1);
  Hashtbl.mem fp.seen (fp_key ~len ~hash:fp.fp_hash.(len))

(* ------------------------------------------------------ race analysis --- *)

(* Per-object access state for the happens-before scan. A cleared
   vector-clock slot is the shared empty array (physically [||], length
   0 = absent); live clock buffers come from the scratch pool so one
   allocation serves many executions. *)
type obj_state = {
  mutable lw_vc : int array; (* clock of the last write; [||] = none *)
  mutable lw_pos : int; (* position of the last write; -1 = none *)
  mutable r_vc : int array; (* join of reads since that write; [||] = none *)
  r_pos : int array; (* per-process last-read position; -1 = none *)
}

(* Reusable buffers for [analyze]: one scratch serves every execution of
   an [explore] call, so the per-run cost is zeroing, not allocating.
   [n] is the process count of the world (>= the largest pid + 1 seen in
   any trace), fixed by the failure pattern. *)
type scratch = {
  n : int;
  mutable s_pids : int array; (* per step: acting pid *)
  mutable s_kinds : Sim.kind array; (* per step: label *)
  mutable vc : int array array; (* per step: vector clock, rows reused *)
  mutable own : int array; (* per step: 1-based own-process index *)
  proc_clock : int array array; (* per process: clock after its last step *)
  positions : Exec.Dynarray.t array; (* per process: its steps' positions *)
  objs : (string, obj_state) Hashtbl.t;
  mutable pool : int array list; (* free clock buffers, length n *)
  cand : Exec.Dynarray.t; (* race candidate positions for one step *)
  vseq : Exec.Dynarray.t; (* positions of one race's wakeup sequence *)
}

let make_scratch ~n =
  {
    n;
    s_pids = Array.make 256 0;
    s_kinds = Array.make 256 Sim.Nop;
    vc = [||];
    own = [||];
    proc_clock = Array.init n (fun _ -> Array.make n 0);
    positions = Array.init n (fun _ -> Exec.Dynarray.create ~capacity:64 ());
    objs = Hashtbl.create 16;
    pool = [];
    cand = Exec.Dynarray.create ~capacity:16 ();
    vseq = Exec.Dynarray.create ~capacity:16 ();
  }

let take_buf s =
  match s.pool with
  | b :: rest ->
      s.pool <- rest;
      b
  | [] -> Array.make s.n 0

let release_buf s b = if Array.length b > 0 then s.pool <- b :: s.pool

let obj_state s o =
  match Hashtbl.find_opt s.objs o with
  | Some st -> st
  | None ->
      let st =
        { lw_vc = [||]; lw_pos = -1; r_vc = [||]; r_pos = Array.make s.n (-1) }
      in
      Hashtbl.replace s.objs o st;
      st

(* pseudo-object giving queries their conflict-with-everything
   semantics; real object names never collide with it *)
let q_obj = "\x00query"

(* The observer of a DPOR run: store each step's (pid, label) at its
   position (step times are 1, 2, ...), growing the arrays as needed.
   The fingerprint and the race analysis read them after the run. *)
let store_step s = function
  | Trace.Step { pid; time; kind; _ } ->
      let i = time - 1 in
      if i >= Array.length s.s_pids then begin
        let cap = 2 * Array.length s.s_pids in
        let pids = Array.make cap 0 and kinds = Array.make cap Sim.Nop in
        Array.blit s.s_pids 0 pids 0 i;
        Array.blit s.s_kinds 0 kinds 0 i;
        s.s_pids <- pids;
        s.s_kinds <- kinds
      end;
      s.s_pids.(i) <- Pid.to_int pid;
      s.s_kinds.(i) <- kind
  | Trace.Crash _ -> ()

(* Race analysis over the WHOLE executed run, not just the choice
   window: a race whose later step sits in the deterministic round-robin
   tail still needs a backtracking point at its (controllable) earlier
   step, otherwise a process with a long program can monopolize the
   window and hide every race from the analysis. Backtracking
   alternatives can only be inserted at window positions [0..grown-1].

   Happens-before is tracked with vector clocks over an access model
   derived from step labels: a [Read]/[Write] accesses its named
   object; [Query] writes a pseudo-object that every step reads (so a
   query conflicts with everything, and two queries conflict);
   [Nop]/[Output]/[Input] only read the pseudo-object. For each step j
   the race candidates are the per-object last conflicting accesses;
   (i, j) is an immediate race when no intermediate k has
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
  let n = s.n in
  if m = 0 then (0, 0)
  else begin
    (* reset the reusable buffers for this run *)
    (if Array.length s.vc < m then begin
       let old = Array.length s.vc in
       let cap = max m (2 * old) in
       let vc = Array.make cap [||] in
       Array.blit s.vc 0 vc 0 old;
       for j = old to cap - 1 do
         vc.(j) <- Array.make n 0
       done;
       s.vc <- vc;
       s.own <- Array.make cap 0
     end);
    for j = 0 to m - 1 do
      Array.fill s.vc.(j) 0 n 0
    done;
    for q = 0 to n - 1 do
      Array.fill s.proc_clock.(q) 0 n 0;
      Exec.Dynarray.clear s.positions.(q)
    done;
    Hashtbl.iter
      (fun _ st ->
        release_buf s st.lw_vc;
        st.lw_vc <- [||];
        st.lw_pos <- -1;
        release_buf s st.r_vc;
        st.r_vc <- [||];
        Array.fill st.r_pos 0 n (-1))
      s.objs;
    let q_st = obj_state s q_obj in
    let join dst src =
      Array.iteri (fun q v -> if v > dst.(q) then dst.(q) <- v) src
    in
    let hb i j =
      (* step i happens-before step j (i < j) *)
      s.vc.(j).(s.s_pids.(i)) >= s.own.(i)
    in
    let races = ref 0 and added = ref 0 in
    for j = 0 to m - 1 do
      let p = s.s_pids.(j) in
      let kj = s.s_kinds.(j) in
      let pj : Pid.t = p in
      (* the step's accesses: its named object (if any) read or written,
         plus the query pseudo-object (written by queries, read by all) *)
      let real_st, real_w =
        match kj with
        | Sim.Read { obj } -> (Some (obj_state s obj), false)
        | Sim.Write { obj } | Sim.Send { obj } | Sim.Recv { obj } ->
            (Some (obj_state s obj), true)
        | Sim.Query _ | Sim.Output _ | Sim.Input _ | Sim.Nop -> (None, false)
      in
      let q_w = match kj with Sim.Query _ -> true | _ -> false in
      (* candidates: last conflicting access per object, before joining
         this step's clock (so they reflect strictly earlier steps) *)
      Exec.Dynarray.clear s.cand;
      let push_cand i = if s.s_pids.(i) <> p then Exec.Dynarray.push s.cand i in
      let candidates_of st w =
        if st.lw_pos >= 0 then push_cand st.lw_pos;
        if w then
          for q = 0 to n - 1 do
            if q <> p && st.r_pos.(q) >= 0 then push_cand st.r_pos.(q)
          done
      in
      (match real_st with Some st -> candidates_of st real_w | None -> ());
      candidates_of q_st q_w;
      Exec.Dynarray.sort_uniq s.cand;
      (* compute this step's clock *)
      let clock = s.vc.(j) in
      join clock s.proc_clock.(p);
      s.own.(j) <- clock.(p) + 1;
      clock.(p) <- s.own.(j);
      let join_tables st w =
        if Array.length st.lw_vc > 0 then join clock st.lw_vc;
        if w && Array.length st.r_vc > 0 then join clock st.r_vc
      in
      (match real_st with Some st -> join_tables st real_w | None -> ());
      join_tables q_st q_w;
      (* immediate races among the candidates *)
      for ci = 0 to Exec.Dynarray.length s.cand - 1 do
        let i = Exec.Dynarray.get s.cand ci in
        let rec mediated k = k < j && ((hb i k && hb k j) || mediated (k + 1)) in
        if not (mediated (i + 1)) then begin
          incr races;
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
                match stack.(grown - 1) with
                | Some nd -> nd
                | None -> assert false
              in
              if Eset.mem nd.enabled pj && not (Pid.Set.mem pj nd.backtrack)
              then begin
                nd.backtrack <- Pid.Set.add pj nd.backtrack;
                incr added
              end
            end
          end
          else begin
            let nd =
              match stack.(i) with Some nd -> nd | None -> assert false
            in
            (* v: the reversing witness — j's happens-before ancestors
               among the steps after i (none of which happen-after i,
               or the race would be mediated), then j itself. Steps
               independent of j are deliberately left out: the reversal
               class only needs j's causal prefix moved before i, and a
               bystander-first v would hand the source-set insertion a
               pid that merely permutes independent steps. *)
            Exec.Dynarray.clear s.vseq;
            for k = i + 1 to j - 1 do
              if (not (hb i k)) && hb k j then Exec.Dynarray.push s.vseq k
            done;
            Exec.Dynarray.push s.vseq j;
            let vlen = Exec.Dynarray.length s.vseq in
            (* weak initial of v: a pid whose first v-step no earlier
               v-step happens-before *)
            let wi_mem q =
              let qi = Pid.to_int q in
              let rec first t =
                if t >= vlen then -1
                else
                  let pos = Exec.Dynarray.get s.vseq t in
                  if s.s_pids.(pos) = qi then t else first (t + 1)
              in
              match first 0 with
              | -1 -> false
              | t ->
                  let pos_q = Exec.Dynarray.get s.vseq t in
                  let rec clear u =
                    u >= t
                    ||
                    let pos_u = Exec.Dynarray.get s.vseq u in
                    (not (hb pos_u pos_q)) && clear (u + 1)
                  in
                  clear 0
            in
            let covered =
              Pid.Set.exists wi_mem nd.backtrack
              || Pid.Set.exists wi_mem nd.explored
              || Pid.Set.exists wi_mem nd.sleep
            in
            if not covered then begin
              let q0 : Pid.t = s.s_pids.(Exec.Dynarray.get s.vseq 0) in
              if Eset.mem nd.enabled q0 then begin
                (* q0 is a weak initial of v by construction, so the
                   single source-set insertion covers the reversal —
                   where the persistent-set explorer scheduled every
                   member of E. *)
                if not (Pid.Set.mem q0 nd.backtrack) then begin
                  nd.backtrack <- Pid.Set.add q0 nd.backtrack;
                  incr added
                end;
                (* record v as q0's wakeup sequence, window-truncated —
                   but only for pure-window races: a crossing race's v
                   prescribes tail steps, and pinning those realizes
                   boundary alignments as distinct window classes. A
                   length-1 sequence prescribes nothing beyond the
                   retargeted node itself, so it is not stored. *)
                let wlen = min vlen (depth - i) in
                if j < grown && wlen > 1 then begin
                  let ws =
                    Array.init wlen (fun t ->
                        let pos = Exec.Dynarray.get s.vseq t in
                        {
                          w_pid = s.s_pids.(pos);
                          w_kind = s.s_kinds.(pos);
                        })
                  in
                  nd.wakeups <- (q0, ws) :: List.remove_assoc q0 nd.wakeups
                end
              end
              else begin
                (* races whose q0 is not enabled at the insertion node
                   keep the lazy persistent-set rule: offering a member
                   of E lets the racing step creep into the window over
                   subsequent analyses *)
                let in_e q =
                  Pid.equal q pj
                  ||
                  let qi = Pid.to_int q in
                  clock.(qi) >= 1
                  &&
                  let c = clock.(qi) - 1 in
                  c < Exec.Dynarray.length s.positions.(qi)
                  &&
                  let pos = Exec.Dynarray.get s.positions.(qi) c in
                  pos > i && pos < j
                in
                let e_nonempty = ref false in
                Eset.iter nd.enabled (fun q _ ->
                    if (not !e_nonempty) && in_e q then e_nonempty := true);
                let e_nonempty = !e_nonempty in
                Eset.iter nd.enabled (fun q _ ->
                    if
                      ((not e_nonempty) || in_e q)
                      && not (Pid.Set.mem q nd.backtrack)
                    then begin
                      nd.backtrack <- Pid.Set.add q nd.backtrack;
                      incr added
                    end)
              end
            end
          end
        end
      done;
      (* update the access tables with this step *)
      let update st w =
        if w then begin
          (if Array.length st.lw_vc > 0 then Array.blit clock 0 st.lw_vc 0 n
           else begin
             let b = take_buf s in
             Array.blit clock 0 b 0 n;
             st.lw_vc <- b
           end);
          st.lw_pos <- j;
          (* a write orders all prior reads before it; clear them so
             later writes race with the write, not stale reads *)
          release_buf s st.r_vc;
          st.r_vc <- [||];
          Array.fill st.r_pos 0 n (-1)
        end
        else begin
          (if Array.length st.r_vc > 0 then join st.r_vc clock
           else begin
             let b = take_buf s in
             Array.blit clock 0 b 0 n;
             st.r_vc <- b
           end);
          st.r_pos.(p) <- j
        end
      in
      (match real_st with Some st -> update st real_w | None -> ());
      update q_st q_w;
      join s.proc_clock.(p) clock;
      Exec.Dynarray.push s.positions.(p) j
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
      if Array.length !presc = 0 && fp_seen_candidate fp ~stack ~len:!len
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
          let dup =
            fp_full_run fp ~s_pids:scratch.s_pids ~s_kinds:scratch.s_kinds ~m
          in
          fp_record fp ~stack ~grown;
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
  let fibers = spawn_fibers ~pattern ~procs in
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
