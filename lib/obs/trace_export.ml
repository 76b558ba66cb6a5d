open Kernel
open Obs

(* One event per JSONL line. The schema is flat so lines grep well:
     {"time":17,"pid":2,"kind":"query","detector":"upsilon_f(f=2,t*=40)","note":"{p1, p3}"}
     {"time":60,"pid":3,"kind":"crash"}
   [pid] is the 0-based index (Pid.of_index round-trips it). *)

let json_of_event event =
  let base pid time kind_fields =
    Json.Obj
      ((("time", Json.Int time) :: ("pid", Json.Int (Pid.to_int pid))
       :: kind_fields))
  in
  match event with
  | Trace.Crash { pid; time } -> base pid time [ ("kind", Json.String "crash") ]
  | Trace.Step { pid; time; kind; payload } ->
      let kind_fields =
        match kind with
        | Sim.Read { obj } ->
            [ ("kind", Json.String "read"); ("obj", Json.String obj) ]
        | Sim.Write { obj } ->
            [ ("kind", Json.String "write"); ("obj", Json.String obj) ]
        | Sim.Send { obj } ->
            [ ("kind", Json.String "send"); ("obj", Json.String obj) ]
        | Sim.Recv { obj } ->
            [ ("kind", Json.String "recv"); ("obj", Json.String obj) ]
        | Sim.Query { detector } ->
            [ ("kind", Json.String "query"); ("detector", Json.String detector) ]
        | Sim.Output { label; value } ->
            [
              ("kind", Json.String "output");
              ("label", Json.String label);
              ("value", Json.String value);
            ]
        | Sim.Input { label; value } ->
            [
              ("kind", Json.String "input");
              ("label", Json.String label);
              ("value", Json.String value);
            ]
        | Sim.Nop -> [ ("kind", Json.String "nop") ]
      in
      let note_field =
        match Sim.render_payload payload with
        | Some n -> [ ("note", Json.String n) ]
        | None -> []
      in
      base pid time (kind_fields @ note_field)

let event_of_json json =
  let ( let* ) r f = Result.bind r f in
  let field key conv what =
    match Option.bind (Json.member key json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed %S (%s)" key what)
  in
  let str key = field key Json.to_str "string" in
  let* time = field "time" Json.to_int "int" in
  let* pid_index = field "pid" Json.to_int "int" in
  if pid_index < 0 then Error "negative pid"
  else
    let pid = Pid.of_index pid_index in
    let* kind_name = str "kind" in
    match kind_name with
    | "crash" -> Ok (Trace.Crash { pid; time })
    | _ ->
        let* kind =
          match kind_name with
          | "read" ->
              let* obj = str "obj" in
              Ok (Sim.Read { obj })
          | "write" ->
              let* obj = str "obj" in
              Ok (Sim.Write { obj })
          | "send" ->
              let* obj = str "obj" in
              Ok (Sim.Send { obj })
          | "recv" ->
              let* obj = str "obj" in
              Ok (Sim.Recv { obj })
          | "query" ->
              let* detector = str "detector" in
              Ok (Sim.Query { detector })
          | "output" ->
              let* label = str "label" in
              let* value = str "value" in
              Ok (Sim.Output { label; value })
          | "input" ->
              let* label = str "label" in
              let* value = str "value" in
              Ok (Sim.Input { label; value })
          | "nop" -> Ok Sim.Nop
          | other -> Error (Printf.sprintf "unknown event kind %S" other)
        in
        let payload =
          match Option.bind (Json.member "note" json) Json.to_str with
          | Some n -> Sim.Note n
          | None -> Sim.No_payload
        in
        Ok (Trace.Step { pid; time; kind; payload })

let to_lines trace = List.map (fun e -> Json.to_string (json_of_event e)) trace

let of_lines lines =
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then loop (lineno + 1) acc rest
        else
          let parsed =
            match Json.of_string line with
            | Error msg -> Error msg
            | Ok json -> event_of_json json
          in
          (match parsed with
          | Ok event -> loop (lineno + 1) (event :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  loop 1 [] lines

let save_channel oc trace =
  List.iter
    (fun event ->
      output_string oc (Json.to_string (json_of_event event));
      output_char oc '\n')
    trace

let save_file path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> save_channel oc trace)

let load_channel ic =
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  of_lines (read [])

let load_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> load_channel ic)
