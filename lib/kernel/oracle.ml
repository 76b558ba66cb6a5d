type violation = { condition : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" v.condition v.detail

let check_run_conditions pattern trace =
  let violations = ref [] in
  let add condition detail = violations := { condition; detail } :: !violations in
  let last_time = ref 0 in
  let seen_times = Hashtbl.create 97 in
  List.iter
    (fun event ->
      (match event with
      | Trace.Step { time; _ } | Trace.Crash { time; _ } ->
          if time < !last_time then
            add "monotone-time"
              (Format.asprintf "event at time %d after time %d" time !last_time);
          last_time := max !last_time time);
      match event with
      | Trace.Step { pid; time; _ } ->
          if Failure_pattern.crashed_at pattern pid time then
            add "run-condition-1"
              (Format.asprintf "%a stepped at %d but crashed at %d" Pid.pp pid
                 time
                 (Failure_pattern.crash_time pattern pid));
          if Hashtbl.mem seen_times time then
            add "run-condition-3"
              (Format.asprintf "two steps at time %d" time)
          else Hashtbl.add seen_times time ()
      | Trace.Crash { pid; time } ->
          let c = Failure_pattern.crash_time pattern pid in
          if c <> time then
            add "crash-event"
              (Format.asprintf "%a crash recorded at %d but pattern says %d"
                 Pid.pp pid time c))
    trace;
  List.rev !violations

let query_violation (type v) (src : v Sim.source) = function
  | Trace.Step { pid; time; kind = Sim.Query { detector }; payload }
    when String.equal detector src.name -> (
      let expected = src.sample pid time in
      let mismatch saw =
        Some
          {
            condition = "run-condition-2";
            detail =
              Format.asprintf "%a queried %s at %d: saw %s, history says %s"
                Pid.pp pid src.name time saw (src.render expected);
          }
      in
      let by_rendering saw =
        if String.equal saw (src.render expected) then None else mismatch saw
      in
      match payload with
      | Sim.No_payload -> None
      | Sim.Note saw -> by_rendering saw
      | Sim.Value (recorded, v) -> (
          match Type.Id.provably_equal recorded.id src.id with
          | Some Type.Equal ->
              if src.equal v expected then None
              else mismatch (recorded.render v)
          | None -> by_rendering (recorded.render v)))
  | Trace.Step _ | Trace.Crash _ -> None

let check_query_values src trace = List.filter_map (query_violation src) trace

let starvation pattern trace ~window =
  let horizon = Trace.last_time trace in
  let cutoff = max 0 (horizon - window) in
  let active =
    List.filter_map
      (function
        | Trace.Step { pid; time; _ } when time > cutoff -> Some pid
        | Trace.Step _ | Trace.Crash _ -> None)
      trace
    |> Pid.Set.of_list
  in
  Pid.Set.diff (Failure_pattern.correct pattern) active

let parse_int_events events =
  List.filter_map
    (fun (pid, _time, _label, value) ->
      match int_of_string_opt value with
      | Some v -> Some (pid, v)
      | None -> None)
    events

let proposals trace = parse_int_events (Trace.inputs ~label:"propose" trace)
let decisions trace = parse_int_events (Trace.outputs ~label:"decide" trace)

let decision_time = function
  | Trace.Step { pid; time; kind = Sim.Output { label = "decide"; _ }; _ } ->
      Some (pid, time)
  | Trace.Step _ | Trace.Crash _ -> None

let decision_times trace = List.filter_map decision_time trace
