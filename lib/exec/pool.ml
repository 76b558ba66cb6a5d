type t = { jobs : int }

let create ?(jobs = 1) () = { jobs = max 1 (min 64 jobs) }
let jobs t = t.jobs

(* Set in worker domains so nested pool calls degrade to inline serial
   execution instead of spawning domains or windowing metrics. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type 'a slot =
  | Done of 'a * Obs.Metrics.snapshot
  | Failed of exn * Printexc.raw_backtrace * Obs.Metrics.snapshot

let rec atomic_min a i =
  let cur = Atomic.get a in
  if i < cur && not (Atomic.compare_and_set a cur i) then atomic_min a i

let serial_until ~stop ~f n =
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let v = f i in
      if stop v then List.rev (v :: acc) else go (i + 1) (v :: acc)
  in
  go 0 []

let map_until t ~stop ~f n =
  if n <= 0 then []
  else if t.jobs <= 1 || n = 1 || Domain.DLS.get in_worker then
    serial_until ~stop ~f n
  else begin
    let jobs = min t.jobs n in
    let slots = Array.make n None in
    (* Highest index the merge will keep: lowered to the first stopping
       (or raising) unit. Deque discipline hands each index to exactly
       one worker; [cut] only ever decreases and an index is executed
       iff it is <= cut at claim time, so every unit <= the final cut
       is guaranteed to have run (and skipped units are never merged). *)
    let cut = Atomic.make (n - 1) in
    (* One deque per worker, seeded with its [index mod jobs] stripe in
       ascending order. No unit is added after seeding, so the sweep is
       over exactly when every deque has drained. *)
    let deques = Array.init jobs (fun _ -> Deque.create ~capacity:n) in
    for wid = 0 to jobs - 1 do
      let len = (n - wid + jobs - 1) / jobs in
      Deque.seed deques.(wid) (Array.init len (fun k -> wid + (k * jobs)))
    done;
    let worker wid () =
      Domain.DLS.set in_worker true;
      let t0 = Unix.gettimeofday () in
      let claimed = ref 0 and steals = ref 0 and steal_batches = ref 0 in
      (* Own deque first; dry, raid the victims round-robin, moving
         half a victim's tail into our deque per raid. A full scan with
         every deque empty means only in-flight units remain — those
         are owned by their executors and never respawn, so exit. *)
      let rec obtain () =
        match Deque.pop deques.(wid) with
        | Some i -> Some i
        | None -> raid 1
      and raid off =
        if off >= jobs then None
        else begin
          let v = (wid + off) mod jobs in
          if
            Deque.size deques.(v) > 0
            && Deque.steal_half ~victim:deques.(v) ~into:deques.(wid) > 0
          then begin
            incr steal_batches;
            obtain ()
          end
          else raid (off + 1)
        end
      in
      let rec loop () =
        match obtain () with
        | None -> ()
        | Some i ->
            if i <= Atomic.get cut then begin
              incr claimed;
              if i mod jobs <> wid then incr steals;
              Obs.Metrics.reset ();
              (match f i with
              | v ->
                  let snap = Obs.Metrics.snapshot () in
                  slots.(i) <- Some (Done (v, snap));
                  if stop v then atomic_min cut i
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  let snap = Obs.Metrics.snapshot () in
                  slots.(i) <- Some (Failed (e, bt, snap));
                  atomic_min cut i)
            end;
            loop ()
      in
      loop ();
      (!claimed, !steals, !steal_batches,
       (Unix.gettimeofday () -. t0) *. 1000.)
    in
    let domains =
      Array.init jobs (fun wid -> Domain.spawn (fun () -> worker wid ()))
    in
    let wstats = Array.map Domain.join domains in
    let last = Atomic.get cut in
    let acc = ref [] and failed = ref None in
    for i = 0 to last do
      match slots.(i) with
      | Some (Done (v, snap)) ->
          Obs.Metrics.absorb snap;
          acc := v :: !acc
      | Some (Failed (e, bt, snap)) ->
          Obs.Metrics.absorb snap;
          failed := Some (e, bt)
      | None -> assert false
    done;
    (* Looked up here rather than held in module-level handles, like the
       per-worker gauges below: purely serial processes never grow
       exec.* rows in their stats output, and concurrent first runs
       from several domains share no one-time initialisation. *)
    Obs.Metrics.incr (Obs.Metrics.counter "exec.pool.runs");
    Obs.Metrics.incr ~by:(last + 1) (Obs.Metrics.counter "exec.pool.units");
    Array.iteri
      (fun wid (claimed, steals, steal_batches, wall_ms) ->
        let set name v =
          Obs.Metrics.set
            (Obs.Metrics.gauge
               (Printf.sprintf "exec.pool.worker.%s{worker=%d}" name wid))
            v
        in
        set "units" (float_of_int claimed);
        set "steals" (float_of_int steals);
        set "steal_batches" (float_of_int steal_batches);
        set "wall_ms" wall_ms)
      wstats;
    (match !failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    List.rev !acc
  end

let map t ~f n = map_until t ~stop:(fun _ -> false) ~f n

let map_list t ~f xs =
  let arr = Array.of_list xs in
  map t ~f:(fun i -> f arr.(i)) (Array.length arr)
