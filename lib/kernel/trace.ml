type event =
  | Step of { pid : Pid.t; time : int; kind : Sim.kind; payload : Sim.payload }
  | Crash of { pid : Pid.t; time : int }

type t = event list

(* Events accumulate into fixed-size chunks so recording a step is one
   array store (amortized) instead of a cons per event; [finish] builds
   the chronological list view on demand and leaves the builder intact,
   so a run can be extended after its trace was inspected. *)
type builder = {
  mutable full : event array array; (* completed chunks, oldest first *)
  mutable nfull : int;
  mutable chunk : event array; (* current chunk, filled up to [pos] *)
  mutable pos : int;
}

let chunk_capacity = 256

let builder () = { full = [||]; nfull = 0; chunk = [||]; pos = 0 }

let push_full b =
  (if b.nfull = Array.length b.full then begin
     let grown = Array.make (max 4 (2 * b.nfull)) [||] in
     Array.blit b.full 0 grown 0 b.nfull;
     b.full <- grown
   end);
  b.full.(b.nfull) <- b.chunk;
  b.nfull <- b.nfull + 1

let record b e =
  if b.pos = Array.length b.chunk then begin
    if b.pos > 0 then push_full b;
    (* seeding with [e] doubles as the fill value: no dummy event *)
    b.chunk <- Array.make chunk_capacity e;
    b.pos <- 1
  end
  else begin
    b.chunk.(b.pos) <- e;
    b.pos <- b.pos + 1
  end

let finish b =
  let acc = ref [] in
  for i = b.pos - 1 downto 0 do
    acc := b.chunk.(i) :: !acc
  done;
  for c = b.nfull - 1 downto 0 do
    let chunk = b.full.(c) in
    for i = Array.length chunk - 1 downto 0 do
      acc := chunk.(i) :: !acc
    done
  done;
  !acc

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
