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
    (* [next] hands each index to exactly one worker, in ascending
       order. [cut] is the highest index the merge will keep: lowered to
       the first stopping (or raising) unit. It only ever decreases and
       an index is executed iff it is <= cut at claim time, so every
       unit <= the final cut is guaranteed to have run (and skipped
       units are never merged). A worker stops at its first claim past
       [cut]: every later claim is larger. *)
    let next = Atomic.make 0 in
    let cut = Atomic.make (n - 1) in
    let worker () =
      Domain.DLS.set in_worker true;
      let t0 = Unix.gettimeofday () in
      let claimed = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i <= Atomic.get cut then begin
          incr claimed;
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
              atomic_min cut i);
          loop ()
        end
      in
      loop ();
      (!claimed, Unix.gettimeofday () -. t0)
    in
    let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
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
    (* Looked up here rather than held in module-level handles: purely
       serial processes never grow exec.* rows in their stats output,
       and concurrent first runs from several domains share no one-time
       initialisation. *)
    let count ?by name = Obs.Metrics.incr ?by (Obs.Metrics.counter name) in
    count "exec.pool.runs";
    count ~by:(last + 1) "exec.pool.units";
    Array.iteri
      (fun wid (claimed, wall_s) ->
        let worker name =
          Printf.sprintf "exec.pool.worker.%s{worker=%d}" name wid
        in
        count ~by:claimed (worker "units");
        count ~by:(int_of_float (wall_s *. 1e6)) (worker "wall_us"))
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
