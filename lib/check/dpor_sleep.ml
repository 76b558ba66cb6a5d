open Kernel

(* The pre-source-set explorer: persistent-set backtracking (whole
   E-sets inserted per race) plus sleep sets, exactly as [Dpor] worked
   before the optimal-DPOR rewrite. Kept as the reference oracle for
   the differential battery in test_dpor_quickcheck.ml and for the
   bench part-3 sleep-vs-optimal comparison legs; it reports its own
   outcome record and touches no metrics, so running it never perturbs
   the gated [check.dpor.*] counters. Root-branch sharding was not
   carried over — it belongs to the production explorer. *)

type stats = {
  executions : int;
  sleep_blocked : int;
  races : int;
  backtrack_points : int;
}

type 'a outcome = {
  stats : stats;
  counterexample : (Pid.t list * 'a) option;
}

let unbounded = max_int

(* Label-based independence of two prospective steps; must stay in
   lockstep with [Dpor.independent] or the differential battery loses
   its meaning. *)
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

type node = {
  mutable chosen : Pid.t;
  mutable kind : Sim.kind;
  enabled : Eset.t;
  mutable backtrack : Pid.Set.t;
  mutable explored : Pid.Set.t;
  sleep : Pid.Set.t;
}

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

let refresh_enabled es sched =
  Eset.clear es;
  Scheduler.iter_pending sched (fun p k -> Eset.push es p k)

let run_once ~pattern ~horizon ~depth ~stack ~len ~make ~pend =
  let procs, checkf = make () in
  let sched_ref = ref None in
  let pos = ref 0 in
  let grown = ref len in
  let blocked = ref false in
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
        refresh_enabled nd.enabled sched;
        (match Eset.find nd.enabled nd.chosen with
        | Some k -> nd.kind <- k
        | None ->
            invalid_arg
              "Dpor_sleep.explore: prescribed process not enabled on replay \
               — make () built a non-deterministic world");
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
            Pid.Set.filter
              (fun q ->
                match Eset.find pend q with
                | Some kq -> independent q kq pp pk
                | None -> false)
              (Pid.Set.union parent.sleep parent.explored)
        in
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
        | Some (q, kq) ->
            stack.(i) <-
              Some
                {
                  chosen = q;
                  kind = kq;
                  enabled = Eset.copy pend;
                  backtrack = Pid.Set.empty;
                  explored = Pid.Set.empty;
                  sleep;
                };
            grown := i + 1;
            Some q
      end
  in
  let fibers = spawn_fibers ~pattern ~procs in
  let sched = Scheduler.create ~pattern ~policy ~fibers in
  sched_ref := Some sched;
  let (_ : Scheduler.outcome) = Scheduler.run sched ~max_steps:horizon in
  let trace = Scheduler.trace sched in
  (checkf trace, trace, Scheduler.trace_builder sched, !grown, !blocked)

(* ------------------------------------------------------ race analysis --- *)

type obj_state = {
  mutable lw_vc : int array;
  mutable lw_pos : int;
  mutable r_vc : int array;
  r_pos : int array;
}

type scratch = {
  n : int;
  mutable s_pids : int array;
  mutable s_kinds : Sim.kind array;
  mutable vc : int array array;
  mutable own : int array;
  proc_clock : int array array;
  positions : Exec.Dynarray.t array;
  objs : (string, obj_state) Hashtbl.t;
  mutable pool : int array list;
  cand : Exec.Dynarray.t;
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

let q_obj = "\x00query"

(* Flanagan–Godefroid persistent-set insertion: for each immediate race
   (i, j) add the whole E-set at node i (everyone enabled there with a
   step in (i, j) happening-before j, or pid_j itself), falling back to
   every enabled process when E is empty. This is the insertion rule
   the source-set rewrite in [Dpor] replaced. *)
let analyze ~scratch:s ~stack ~grown ~builder =
  let n = s.n in
  let total = Trace.builder_length builder in
  if Array.length s.s_pids < total then begin
    let cap = max total (2 * Array.length s.s_pids) in
    s.s_pids <- Array.make cap 0;
    s.s_kinds <- Array.make cap Sim.Nop
  end;
  let m = ref 0 in
  Trace.iter_builder builder (function
    | Trace.Step { pid; kind; _ } ->
        s.s_pids.(!m) <- Pid.to_int pid;
        s.s_kinds.(!m) <- kind;
        incr m
    | Trace.Crash _ -> ());
  let m = !m in
  if m = 0 then (0, 0)
  else begin
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
    let hb i j = s.vc.(j).(s.s_pids.(i)) >= s.own.(i) in
    let races = ref 0 and added = ref 0 in
    for j = 0 to m - 1 do
      let p = s.s_pids.(j) in
      let kj = s.s_kinds.(j) in
      let pj : Pid.t = p in
      let real_st, real_w =
        match kj with
        | Sim.Read { obj } -> (Some (obj_state s obj), false)
        | Sim.Write { obj } | Sim.Send { obj } | Sim.Recv { obj } ->
            (Some (obj_state s obj), true)
        | Sim.Query _ | Sim.Output _ | Sim.Input _ | Sim.Nop -> (None, false)
      in
      let q_w = match kj with Sim.Query _ -> true | _ -> false in
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
      for ci = 0 to Exec.Dynarray.length s.cand - 1 do
        let i = Exec.Dynarray.get s.cand ci in
        let rec mediated k = k < j && ((hb i k && hb k j) || mediated (k + 1)) in
        if not (mediated (i + 1)) then begin
          incr races;
          if i >= grown then begin
            if grown > 0 then begin
              let nd =
                match stack.(grown - 1) with
                | Some nd -> nd
                | None -> assert false
              in
              if
                Eset.mem nd.enabled pj && not (Pid.Set.mem pj nd.backtrack)
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
      done;
      let update st w =
        if w then begin
          (if Array.length st.lw_vc > 0 then Array.blit clock 0 st.lw_vc 0 n
           else begin
             let b = take_buf s in
             Array.blit clock 0 b 0 n;
             st.lw_vc <- b
           end);
          st.lw_pos <- j;
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

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let explore_loop ~pattern ~depth ~horizon ~make ~budget ~should_stop ~stack
    ~len ~floor =
  let executions = ref 0 and blocked_runs = ref 0 in
  let races_total = ref 0 and added_total = ref 0 in
  let scratch = make_scratch ~n:(Failure_pattern.n_plus_1 pattern) in
  let pend = Eset.create () in
  let rec loop () =
    if !executions >= budget || should_stop () then None
    else begin
      let verdict, trace, builder, grown, blocked =
        run_once ~pattern ~horizon ~depth ~stack ~len:!len ~make ~pend
      in
      incr executions;
      if blocked then incr blocked_runs;
      match verdict with
      | Error report -> Some (take depth (Trace.schedule trace), report)
      | Ok () ->
          if not blocked then begin
            let races, added = analyze ~scratch ~stack ~grown ~builder in
            races_total := !races_total + races;
            added_total := !added_total + added
          end;
          len := grown;
          if next_candidate ~stack ~len ~floor then loop () else None
    end
  in
  let counterexample = loop () in
  {
    stats =
      {
        executions = !executions;
        sleep_blocked = !blocked_runs;
        races = !races_total;
        backtrack_points = !added_total;
      };
    counterexample;
  }

let explore ~pattern ~depth ~horizon ?(budget = unbounded)
    ?(should_stop = fun () -> false) ~make () =
  if depth < 0 then invalid_arg "Dpor_sleep.explore: negative depth";
  if budget < 0 then invalid_arg "Dpor_sleep.explore: negative budget";
  let stack = Array.make (max depth 1) None in
  let len = ref 0 in
  explore_loop ~pattern ~depth ~horizon ~make ~budget ~should_stop ~stack ~len
    ~floor:0
