(* A handle is a slot. A name gets its slot, kind and histogram layout
   once, in one table shared by every domain and written only under
   [lock]. Values live in the calling domain's registry (DLS): growable
   arrays indexed by slot. Handles hold no mutable state, so any domain
   may use any handle, and an increment is a DLS read and an array
   store, with no allocation and no write to shared memory. *)

type counter = int
type gauge = int
type histogram = int
type kind = Counter | Gauge | Histogram of float array (* bucket bounds *)

let lock = Mutex.create ()
let table : (string, kind * int) Hashtbl.t = Hashtbl.create 97
let n_counters = ref 0
let n_gauges = ref 0
let layouts : float array array ref = ref [||] (* histogram slot -> bounds *)

type hcell = {
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length = Array.length bounds + 1; last is overflow *)
  mutable hsum : float;
  mutable hevents : int;
}

(* A domain lists a counter or histogram once it has created or touched
   the handle, and a gauge once set since the last reset ([set]). A
   counter's cell holds [2 * value + 1] once touched and 0 before, so
   one store both counts and lists the name. *)
type registry = {
  mutable ints : int array;
  mutable floats : float array;
  mutable set : bool array;
  mutable hists : hcell option array;
  memo : (string, kind * int) Hashtbl.t; (* this domain's view of [table] *)
}

let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        ints = [||];
        floats = [||];
        set = [||];
        hists = [||];
        memo = Hashtbl.create 97;
      })

let registry () = Domain.DLS.get registry_key

let clash name =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered with a different type" name)

let entry r kind name =
  match Hashtbl.find_opt r.memo name with
  | Some e -> e
  | None ->
      let e =
        Mutex.protect lock (fun () ->
            match Hashtbl.find_opt table name with
            | Some e -> e
            | None ->
                let fresh n =
                  let s = !n in
                  n := s + 1;
                  s
                in
                let slot =
                  match kind with
                  | Counter -> fresh n_counters
                  | Gauge -> fresh n_gauges
                  | Histogram bounds ->
                      layouts := Array.append !layouts [| bounds |];
                      Array.length !layouts - 1
                in
                Hashtbl.add table name (kind, slot);
                (kind, slot))
      in
      Hashtbl.add r.memo name e;
      e

(* Arrays grow to cover the slot asked for, and at least double. *)
let extend a slot fill =
  let b = Array.make (max (slot + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let default_buckets =
  [| 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 5000. |]

(* HDR-style 1-2-5 bounds: every decade from the one containing [lo] up
   to [hi] contributes 1x, 2x, 5x, clipped to [lo, hi]. Constant
   relative resolution, so one histogram stays meaningful from
   microseconds to minutes. *)
let log_buckets ?(lo = 0.001) ?(hi = 60_000.) () =
  if not (lo > 0. && hi > lo) then
    invalid_arg "Metrics.log_buckets: need 0 < lo < hi";
  let decade = 10. ** Float.of_int (int_of_float (Float.floor (Float.log10 lo))) in
  let rec go acc d =
    if d > hi then List.rev acc
    else
      let acc =
        List.fold_left
          (fun acc m ->
            let bound = m *. d in
            if bound >= lo && bound <= hi then bound :: acc else acc)
          acc [ 1.; 2.; 5. ]
      in
      go acc (d *. 10.)
  in
  Array.of_list (go [] decade)

(* ----------------------------------------------------------- counters --- *)

let[@inline] add r c by =
  if c >= Array.length r.ints then r.ints <- extend r.ints c 0;
  r.ints.(c) <- (r.ints.(c) + (by lsl 1)) lor 1

let counter name =
  let r = registry () in
  match entry r Counter name with
  | Counter, c ->
      add r c 0;
      c
  | _ -> clash name

let incr ?(by = 1) c = add (registry ()) c by
let add_in r c n = add r c n

let counter_value c =
  let r = registry () in
  add r c 0;
  r.ints.(c) asr 1

(* ------------------------------------------------------------- gauges --- *)

let gauge name =
  match entry (registry ()) Gauge name with
  | Gauge, g -> g
  | _ -> clash name

let set g v =
  let r = registry () in
  if g >= Array.length r.floats then begin
    r.floats <- extend r.floats g 0.0;
    r.set <- extend r.set g false
  end;
  r.floats.(g) <- v;
  r.set.(g) <- true

let gauge_value g =
  let r = registry () in
  if g < Array.length r.floats then r.floats.(g) else 0.0

(* --------------------------------------------------------- histograms --- *)

let check_buckets buckets =
  let m = Array.length buckets in
  if m = 0 then invalid_arg "Metrics.histogram: no buckets";
  for i = 1 to m - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Metrics.histogram: bucket bounds must increase"
  done

let hist_cell r h =
  if h >= Array.length r.hists then r.hists <- extend r.hists h None;
  match r.hists.(h) with
  | Some cell -> cell
  | None ->
      let bounds = Mutex.protect lock (fun () -> !layouts.(h)) in
      let cell =
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          hsum = 0.0;
          hevents = 0;
        }
      in
      r.hists.(h) <- Some cell;
      cell

(* The registered slot and layout of [name]; the layout is fixed by the
   first registration in any domain. *)
let hist_entry r ~buckets name =
  check_buckets buckets;
  match entry r (Histogram (Array.copy buckets)) name with
  | Histogram bounds, h -> (h, bounds)
  | _ -> clash name

let histogram ?(buckets = default_buckets) name =
  let r = registry () in
  let h, _ = hist_entry r ~buckets name in
  ignore (hist_cell r h);
  h

(* A loop rather than a local recursive function, which would allocate
   a closure per observation; inlined, so [observe_in] boxes only the
   running sum: 2 words an observation, where the closure form takes 10. *)
let[@inline] record cell v =
  let m = Array.length cell.bounds in
  let i = ref 0 in
  while !i < m && not (v <= cell.bounds.(!i)) do
    i := !i + 1
  done;
  cell.counts.(!i) <- cell.counts.(!i) + 1;
  cell.hsum <- cell.hsum +. v;
  cell.hevents <- cell.hevents + 1

let observe h v = record (hist_cell (registry ()) h) v
let observe_int h v = observe h (float_of_int v)
let observe_in r h n = record (hist_cell r h) (float_of_int n)

(* ---------------------------------------------------------- snapshots --- *)

type hist_view = {
  buckets : (float * int) list; (* (upper bound, count in bucket) *)
  overflow : int;
  sum : float;
  events : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_view) list;
}

let hist_view (h : hcell) =
  {
    buckets =
      List.init (Array.length h.bounds) (fun i -> (h.bounds.(i), h.counts.(i)));
    overflow = h.counts.(Array.length h.bounds);
    sum = h.hsum;
    events = h.hevents;
  }

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  let r = registry () in
  let entries =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun name e acc -> (name, e) :: acc) table [])
  in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, (kind, s)) ->
      match kind with
      | Counter ->
          if s < Array.length r.ints && r.ints.(s) land 1 = 1 then
            counters := (name, r.ints.(s) asr 1) :: !counters
      | Gauge ->
          if s < Array.length r.set && r.set.(s) then
            gauges := (name, r.floats.(s)) :: !gauges
      | Histogram _ -> (
          if s < Array.length r.hists then
            match r.hists.(s) with
            | Some h -> histograms := (name, hist_view h) :: !histograms
            | None -> ()))
    entries;
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let reset () =
  let r = registry () in
  Array.iteri (fun c v -> r.ints.(c) <- v land 1) r.ints;
  Array.fill r.floats 0 (Array.length r.floats) 0.0;
  Array.fill r.set 0 (Array.length r.set) false;
  Array.iter
    (function
      | Some h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.hsum <- 0.0;
          h.hevents <- 0
      | None -> ())
    r.hists

let absorb (s : snapshot) =
  let r = registry () in
  List.iter (fun (name, v) -> add r (counter name) v) s.counters;
  List.iter (fun (name, v) -> set (gauge name) v) s.gauges;
  List.iter
    (fun (name, hv) ->
      let buckets = Array.of_list (List.map fst hv.buckets) in
      let h, bounds = hist_entry r ~buckets name in
      if bounds <> buckets then clash name;
      let cell = hist_cell r h in
      List.iteri
        (fun i (_, c) -> cell.counts.(i) <- cell.counts.(i) + c)
        hv.buckets;
      let last = Array.length bounds in
      cell.counts.(last) <- cell.counts.(last) + hv.overflow;
      cell.hsum <- cell.hsum +. hv.sum;
      cell.hevents <- cell.hevents + hv.events)
    s.histograms

let find_counter snap name = List.assoc_opt name snap.counters
let find_gauge snap name = List.assoc_opt name snap.gauges
let find_histogram snap name = List.assoc_opt name snap.histograms

(* ---------------------------------------------------------- rendering --- *)

let hist_mean hv =
  if hv.events = 0 then 0.0 else hv.sum /. float_of_int hv.events

let hist_quantile hv q =
  if hv.events = 0 then None
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target =
      max 1
        (min hv.events (int_of_float (Float.ceil (q *. float_of_int hv.events))))
    in
    let rec go lower cum = function
      | [] ->
          (* target falls in the overflow bucket: the best bounded
             answer is the largest finite bound *)
          Some lower
      | (ub, c) :: rest ->
          if c > 0 && cum + c >= target then
            let frac = float_of_int (target - cum) /. float_of_int c in
            Some (lower +. ((ub -. lower) *. frac))
          else go ub (cum + c) rest
    in
    go 0. 0 hv.buckets
  end

let rows snap =
  List.concat
    [
      List.map
        (fun (name, v) -> [ name; "counter"; string_of_int v ])
        snap.counters;
      List.map
        (fun (name, v) -> [ name; "gauge"; Printf.sprintf "%g" v ])
        snap.gauges;
      List.map
        (fun (name, hv) ->
          [
            name;
            "histogram";
            Printf.sprintf "n=%d sum=%.0f mean=%.1f" hv.events hv.sum
              (hist_mean hv);
          ])
        snap.histograms;
    ]
  |> List.sort compare

let to_json snap =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.counters) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) snap.gauges) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, hv) ->
               ( k,
                 Json.Obj
                   [
                     ( "buckets",
                       Json.List
                         (List.map
                            (fun (ub, c) ->
                              Json.List [ Json.Float ub; Json.Int c ])
                            hv.buckets) );
                     ("overflow", Json.Int hv.overflow);
                     ("sum", Json.Float hv.sum);
                     ("count", Json.Int hv.events);
                   ] ))
             snap.histograms) );
    ]
