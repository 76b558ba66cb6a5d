(* Helpers shared by the serve and cache test files, so each suite
   stops re-growing its own copies of substring search, temp paths,
   recursive delete, and condition polling. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Per-test paths backed by [Filename.temp_file]'s unique-name
   guarantee, so concurrent test runners (parallel [dune runtest],
   several checkouts sharing one TMPDIR) can never collide — a
   pid+counter scheme would reuse paths across runners that happen to
   share a pid namespace. For sockets the file itself is removed at
   once: binding a Unix socket needs the path free. *)
let temp_socket () =
  let path = Filename.temp_file "wfde-test" ".sock" in
  Sys.remove path;
  path

let temp_dir ?(prefix = "wfde-test-dir") () =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Poll until [cond] holds; the daemon tests use this to sequence
   against worker state instead of sleeping blindly. *)
let eventually ?(timeout = 5.0) msg cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Thread.yield ();
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* [Kernel.Run.exec] with the run's trace kept: runs keep no trace of
   their own, so the tests that read one record it in an observer. *)
let exec_traced ~pattern ~policy ?horizon ~procs () =
  let events = Kernel.Trace.builder () in
  let result =
    Kernel.Run.exec ~pattern ~policy ?horizon
      ~observers:[ Kernel.Trace.record events ]
      ~procs ()
  in
  (result, Kernel.Trace.finish events)

(* [f ()] on a freshly reset metrics registry, after a full major
   collection: its result, the counters it left in the calling domain's
   registry, and the minor-heap words it allocated. The pinned-counter
   tables read their counters and allocation this way. *)
let measured f =
  Obs.Metrics.reset ();
  Gc.full_major ();
  let before = Gc.minor_words () in
  let x = f () in
  let words = Gc.minor_words () -. before in
  (x, Obs.Metrics.snapshot (), words)

let counter snap name =
  Option.value ~default:0 (Obs.Metrics.find_counter snap name)

(* Allocation is deterministic for one compiler but drifts a little
   across versions, so a recorded minor-words figure bounds the
   measured one with 10% to spare. *)
let check_minor_words name ~baseline words =
  let bound = float_of_int baseline *. 1.10 in
  if words > bound then
    Alcotest.failf "%s: %.0f minor words, over %.0f (%d + 10%%)" name words
      bound baseline
