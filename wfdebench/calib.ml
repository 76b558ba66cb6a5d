(* The host-speed probe. The hosts this benchmark runs on change speed
   for tens of seconds at a time: the same E10 world took 0.58 s in one
   minute and 1.20 s in the next. wfdebench.exe spawns this executable
   between the units it times and scales each unit's time by the host
   speed measured around it.

   The kernel is fixed and links nothing of wfde, so no change to the
   library can change its time. It allocates a long list of small
   tuples and strings and folds over it: short-lived and promoted
   allocation and major collection, the kind of work the simulator's
   traces make, which tracked the workloads' slowdowns more closely
   than a hash-table or a random-access kernel did. It runs the kernel
   three times and prints the median time in seconds. *)

let kernel () =
  let t0 = Unix.gettimeofday () in
  let rec build i acc =
    if i = 0 then acc else build (i - 1) ((i, i land 7, string_of_int (i land 255)) :: acc)
  in
  let l = build 150_000 [] in
  ignore (Sys.opaque_identity (List.fold_left (fun a (x, y, _) -> a + x + y) 0 l));
  Unix.gettimeofday () -. t0

(* With an argument N, N domains run the kernel at once and each time
   is the slowest domain's, for workloads that run N domains. *)
let () =
  let domains = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  let once () =
    if domains = 1 then kernel ()
    else
      List.fold_left max 0.
        (List.map Domain.join (List.init domains (fun _ -> Domain.spawn kernel)))
  in
  let times = List.sort compare (List.init 3 (fun _ -> once ())) in
  Printf.printf "%.9f\n" (List.nth times 1)
