open Kernel

type 'a outcome = {
  executions : int;
  counterexample : (Pid.t list * 'a) option;
}

(* The original unreduced enumerator, verbatim. Execute one fresh world
   under [prefix ++ round-robin], returning the checker's result and
   the enabled set seen at each prefix position (to drive enumeration
   of the next sibling schedules). *)
let run_one ~pattern ~prefix ~depth ~horizon ~observers ~make =
  let procs, check = make () in
  let enabled_at = Array.make depth [] in
  let position = ref 0 in
  let rr = Policy.round_robin () in
  let remaining = ref prefix in
  let policy ~now ~enabled =
    let i = !position in
    if i < depth then begin
      enabled_at.(i) <- enabled;
      incr position;
      match !remaining with
      | choice :: rest ->
          remaining := rest;
          if List.mem choice enabled then Some choice
          else
            (* the prescribed process quiesced: fall back in-order *)
            rr ~now ~enabled
      | [] -> rr ~now ~enabled
    end
    else rr ~now ~enabled
  in
  let result = Run.exec ~pattern ~policy ~horizon ~observers ~procs () in
  (check result, Array.to_list enabled_at)

let naive_prefix ~pattern ~depth ~horizon ?(observers = []) ~make () =
  let executions = ref 0 in
  (* Depth-first over prefix schedules. [prefix] is the fixed choice list
     so far (grown left to right); enumeration at position i uses the
     enabled sets observed when running the current prefix. *)
  let rec explore prefix =
    incr executions;
    let verdict, enabled_trace =
      run_one ~pattern ~prefix ~depth ~horizon ~observers ~make
    in
    match verdict with
    | Error report -> Some (prefix, report)
    | Ok _ ->
        (* extend: enumerate alternatives at the first position beyond the
           current prefix *)
        let i = List.length prefix in
        if i >= depth then None
        else
          let enabled =
            match List.nth_opt enabled_trace i with
            | Some e -> e
            | None -> []
          in
          (* run with the current prefix used round-robin's choice at
             position i; recursing on every enabled choice covers it *)
          List.fold_left
            (fun acc choice ->
              match acc with
              | Some _ -> acc
              | None -> explore (prefix @ [ choice ]))
            None enabled
  in
  (* The root call explores the empty prefix; children enumerate position
     0 choices, grandchildren position 1, etc. Note each [explore] run
     re-executes the whole world, so the total executions are bounded by
     the number of prefix nodes, ~ n^depth. *)
  let counterexample = explore [] in
  { executions = !executions; counterexample }

let count_schedules ~n_plus_1 ~depth =
  if n_plus_1 < 0 || depth < 0 then
    invalid_arg "Explore.count_schedules: negative argument";
  if n_plus_1 = 0 then if depth = 0 then 1 else 0
  else
    let rec power acc k =
      if k = 0 then acc
      else if acc > max_int / n_plus_1 then max_int
      else power (acc * n_plus_1) (k - 1)
    in
    power 1 depth
