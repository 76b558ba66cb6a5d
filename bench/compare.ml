(* Deterministic perf-regression checker.

   Usage: compare BASELINE.json CURRENT.json

   Both files are wfde-bench/1 documents (bench/main.exe --json). The
   gated sections ([gated_sections] below) are the ones built from
   deterministic work counters — "macro" (DPOR/Lin), "serve"/"serve_tracing"/"serve_cache"
   (daemon load generator), and "detector_impl" (heartbeat detectors
   over partially synchronous links) — compared entry by entry under
   the same rules:

   - every counter of an entry present in both files must not INCREASE
     (executions, races, backtrack points, scheduler steps, service
     errors, payload mismatches are exact functions of the algorithms
     and the workload; an increase means a behaviour change);
   - minor-heap words, when both sides record them, must not grow by
     more than 10% (allocation counts are deterministic for a fixed
     compiler but drift slightly across compiler versions);
   - wall-clock times are printed with their ratio but never gate: CI
     machines are noisy, counters are not;
   - a baseline entry missing from the current run fails (a vanished
     benchmark hides regressions); a new current entry is reported and
     allowed;
   - a gated section present on one side only fails: a section the
     current run lost hides regressions, and one the baseline lacks is
     not gated at all, so the baseline must be re-committed with it.

   Exit status 0 = no regression, 1 = regression, 2 = usage/parse
   error. *)

let minor_words_tolerance = 1.10
let gated_sections =
  [ "macro"; "serve"; "serve_tracing"; "serve_cache"; "detector_impl" ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let load path =
  let ic = try open_in path with Sys_error e -> die "cannot open %s" e in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Wfde.Json.of_string s with
  | Ok j -> j
  | Error e -> die "%s: parse error: %s" path e

type entry = {
  wall : float;
  minor_words : float option;
  counters : (string * int) list;
}

(* [None] = the document has no such section; [Some entries] otherwise.
   Entries need a name and a wall time; minor_words and counters are
   per-section extras. *)
let get_section ~section path doc =
  match Wfde.Json.member section doc with
  | None -> None
  | Some (Wfde.Json.List entries) ->
      Some
        (List.map
           (fun e ->
             let str k = Option.bind (Wfde.Json.member k e) Wfde.Json.to_str in
             let num k =
               Option.bind (Wfde.Json.member k e) Wfde.Json.to_float
             in
             match (str "name", num "wall_seconds") with
             | Some name, Some wall ->
                 let counters =
                   match Wfde.Json.member "counters" e with
                   | Some (Wfde.Json.Obj kvs) ->
                       List.filter_map
                         (fun (k, v) ->
                           Option.map (fun i -> (k, i)) (Wfde.Json.to_int v))
                         kvs
                   | _ -> []
                 in
                 (name, { wall; minor_words = num "minor_words"; counters })
             | _ -> die "%s: malformed %S entry" path section)
           entries)
  | Some _ -> die "%s: %S is not a list" path section

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ -> die "usage: %s BASELINE.json CURRENT.json" Sys.argv.(0)
  in
  let baseline_doc = load baseline_path and current_doc = load current_path in
  List.iter
    (fun (path, doc) ->
      match Wfde.Json.member "schema" doc |> Option.map Wfde.Json.to_str with
      | Some (Some "wfde-bench/1") -> ()
      | _ -> die "%s: not a wfde-bench/1 document" path)
    [ (baseline_path, baseline_doc); (current_path, current_doc) ];
  let regressions = ref [] in
  let regress fmt =
    Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt
  in
  let compare_section section =
    let baseline = get_section ~section baseline_path baseline_doc in
    let current = get_section ~section current_path current_doc in
    match (baseline, current) with
    | None, None -> ()
    | None, Some _ -> regress "section %s missing from the baseline" section
    | Some _, None ->
        regress "section %s vanished from the current run" section
    | Some baseline, Some current ->
        List.iter
          (fun (name, b) ->
            match List.assoc_opt name current with
            | None -> regress "%s: entry missing from current run" name
            | Some c ->
                Printf.printf "%-38s wall %7.3fs -> %7.3fs (%5.2fx)\n" name
                  b.wall c.wall
                  (if c.wall > 0. then b.wall /. c.wall else nan);
                List.iter
                  (fun (k, bv) ->
                    match List.assoc_opt k c.counters with
                    | None -> regress "%s: counter %s vanished (was %d)" name k bv
                    | Some cv when cv > bv ->
                        regress "%s: counter %s regressed %d -> %d" name k bv cv
                    | Some cv when cv < bv ->
                        Printf.printf
                          "  improved counter %-20s %d -> %d (-%.1f%%)\n" k bv
                          cv
                          (100. *. float_of_int (bv - cv) /. float_of_int bv)
                    | Some _ -> ())
                  b.counters;
                (match (b.minor_words, c.minor_words) with
                | Some b_minor, Some c_minor ->
                    if c_minor > b_minor *. minor_words_tolerance then
                      regress
                        "%s: minor_words regressed %.0f -> %.0f (> %.0f%% growth)"
                        name b_minor c_minor
                        ((minor_words_tolerance -. 1.) *. 100.)
                    else if c_minor < b_minor then
                      Printf.printf
                        "  improved minor_words %24.0f -> %.0f (%.1fx less)\n"
                        b_minor c_minor
                        (if c_minor > 0. then b_minor /. c_minor else nan)
                | _ -> ());
          )
          baseline;
        List.iter
          (fun (name, _) ->
            if not (List.mem_assoc name baseline) then
              Printf.printf "%-38s new entry (no baseline)\n" name)
          current
  in
  List.iter compare_section gated_sections;
  match List.rev !regressions with
  | [] -> print_endline "compare: no deterministic-counter regressions"
  | rs ->
      List.iter (fun r -> Printf.eprintf "REGRESSION %s\n" r) rs;
      exit 1
