type 'a entry = { data : 'a; version : int; view : ('a * int) array }

type 'a t = {
  cells : 'a entry Register.t array;
  mutable single_collect : bool;
      (* planted Mutant.Snapshot_single_collect: no double-collect check *)
  metrics : Obs.Metrics.registry; (* the creating domain's, for every count *)
}

let m_scans = Obs.Metrics.counter "memory.snapshot.scans"
let m_updates = Obs.Metrics.counter "memory.snapshot.updates"
let m_borrowed = Obs.Metrics.counter "memory.snapshot.borrowed_views"

(* Double collects per scan: 1 = clean first try, more = interference. *)
let m_scan_rounds =
  Obs.Metrics.histogram
    ~buckets:[| 1.; 2.; 3.; 5.; 8.; 13.; 21. |]
    "memory.snapshot.scan_rounds"

let create ~name ~size ~init =
  let initial_view = Array.init size (fun j -> (init j, 0)) in
  let cells =
    Register.array ~name ~size ~init:(fun i ->
        { data = init i; version = 0; view = initial_view })
  in
  { cells; single_collect = false; metrics = Obs.Metrics.registry () }

let size t = Array.length t.cells

let unsafe_plant t = function
  | Kernel.Mutant.Snapshot_single_collect -> t.single_collect <- true
  | _ -> ()

(* One collect per iteration; a position whose version changed between two
   successive collects "moved". A position seen moving twice performed a
   complete update inside our scan interval, so its embedded view is a
   valid snapshot of that interval (Afek et al., Lemma 4.2).

   Returns the view together with the times of the first and last
   register accesses, delimiting the scan's real-time interval for
   history recording. *)
let scan_entries_timed t =
  let n = size t in
  let moved = Array.make n 0 in
  let rounds = ref 1 in
  let finish result =
    Obs.Metrics.add_in t.metrics m_scans 1;
    Obs.Metrics.observe_in t.metrics m_scan_rounds !rounds;
    result
  in
  let c0, t_first, c0_last = Register.collect_timed t.cells in
  if t.single_collect then
    (finish (Array.map (fun e -> (e.data, e.version)) c0), t_first, c0_last)
  else
    let rec attempt c1 =
      let c2, _, c2_last = Register.collect_timed t.cells in
      let any_change = ref false in
      let borrowed = ref None in
      for j = 0 to n - 1 do
        if c1.(j).version <> c2.(j).version then begin
          any_change := true;
          moved.(j) <- moved.(j) + 1;
          if moved.(j) >= 2 && !borrowed = None then borrowed := Some c2.(j)
        end
      done;
      if not !any_change then
        (finish (Array.map (fun e -> (e.data, e.version)) c2), t_first, c2_last)
      else
        match !borrowed with
        | Some e ->
            Obs.Metrics.add_in t.metrics m_borrowed 1;
            (finish (Array.copy e.view), t_first, c2_last)
        | None ->
            incr rounds;
            attempt c2
    in
    attempt c0

let scan_entries t =
  let view, _, _ = scan_entries_timed t in
  view

let scan_versioned t = scan_entries t
let scan t = Array.map fst (scan_entries t)

let scan_timed t =
  let view, first, last = scan_entries_timed t in
  (Array.map fst view, first, last)

let update_timed t ~me v =
  Obs.Metrics.add_in t.metrics m_updates 1;
  let view, first, _ = scan_entries_timed t in
  let old = Register.read t.cells.(me) in
  let written =
    Register.write_timed t.cells.(me)
      { data = v; version = old.version + 1; view }
  in
  (first, written)

let update t ~me v = ignore (update_timed t ~me v)
