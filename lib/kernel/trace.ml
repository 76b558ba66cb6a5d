type event =
  | Step of { pid : Pid.t; time : int; kind : Sim.kind; payload : Sim.payload }
  | Crash of { pid : Pid.t; time : int }

type t = event list

(* Newest first; [finish] reverses a copy, so a run can be extended
   after its trace was inspected. *)
type builder = { mutable rev : event list }

let builder () = { rev = [] }
let record b e = b.rev <- e :: b.rev
let finish b = List.rev b.rev

let steps_of t pid =
  List.length
    (List.filter
       (function Step s -> Pid.equal s.pid pid | Crash _ -> false)
       t)

let outputs ?label t =
  List.filter_map
    (function
      | Step { pid; time; kind = Sim.Output { label = l; value }; _ } ->
          if match label with Some want -> String.equal want l | None -> true
          then Some (pid, time, l, value)
          else None
      | Step _ | Crash _ -> None)
    t

let schedule t =
  List.filter_map
    (function Step { pid; _ } -> Some pid | Crash _ -> None)
    t

let last_time t =
  List.fold_left
    (fun acc -> function Step { time; _ } | Crash { time; _ } -> max acc time)
    0 t

let queries t ~detector =
  List.filter_map
    (function
      | Step { pid; time; kind = Sim.Query { detector = d }; _ }
        when String.equal d detector ->
          Some (pid, time)
      | Step _ | Crash _ -> None)
    t

let query_values t ~detector =
  List.filter_map
    (function
      | Step { pid; time; kind = Sim.Query { detector = d }; payload }
        when String.equal d detector ->
          Option.map (fun v -> (pid, time, v)) (Sim.render_payload payload)
      | Step _ | Crash _ -> None)
    t

let pp_event ppf = function
  | Step { pid; time; kind; payload } ->
      Format.fprintf ppf "%6d %a %a%s" time Pid.pp pid Sim.kind_pp kind
        (match Sim.render_payload payload with
        | Some n -> " = " ^ n
        | None -> "")
  | Crash { pid; time } ->
      Format.fprintf ppf "%6d %a CRASH" time Pid.pp pid

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    pp_event ppf t
