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
