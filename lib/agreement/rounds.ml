open Kernel
open Memory
module M = Map.Make (Int)

(* A position (round, sub) as one int, ordered as the pair. *)
let pos ~round ~sub = (round lsl 32) lor sub
let round_of_pos c = c land (-1 lsl 32)

type window = {
  at : int array; (* each process's position; max_int once it decided *)
  mutable floor : int; (* the least of [at] *)
  mutable retirers : (unit -> unit) list; (* one per family *)
}

type level = Round | Sub

type ('k, 'a) family = {
  win : window;
  level : level;
  make : int -> int -> 'k -> 'a;
  mutable live : ('k * 'a) list M.t; (* by position, then by key *)
  mutable low : int; (* the least position in [live]; max_int if none *)
}

let floor_of f =
  match f.level with Sub -> f.win.floor | Round -> round_of_pos f.win.floor

let retire f () =
  let floor = floor_of f in
  if f.low < floor then begin
    let _, here, above = M.split floor f.live in
    f.live <- (match here with None -> above | Some b -> M.add floor b above);
    f.low <-
      (match M.min_binding f.live with
      | c, _ -> c
      | exception Not_found -> max_int)
  end

let family_in win level make =
  let f = { win; level; make; live = M.empty; low = max_int } in
  win.retirers <- retire f :: win.retirers;
  f

(* The position of [(round, sub)] in [f], which must not have retired. *)
let code f ~round ~sub =
  let sub = match f.level with Sub -> sub | Round -> 0 in
  let c = pos ~round ~sub in
  if c < floor_of f then
    invalid_arg (Printf.sprintf "Rounds: (%d, %d) has retired" round sub);
  c

let rec assoc key = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if k = key then v else assoc key rest

let get f ~round ~sub key =
  let c = code f ~round ~sub in
  let bucket = try M.find c f.live with Not_found -> [] in
  try assoc key bucket
  with Not_found ->
    let obj = f.make round sub key in
    f.live <- M.add c ((key, obj) :: bucket) f.live;
    if c < f.low then f.low <- c;
    obj

type t = {
  win : window;
  final : int option Register.t;
  d : (unit, int option Register.t) family;
  stable : (unit, bool Register.t) family;
  cv : (int, int Converge.instance) family;
  mutable max_round : int;
  mutable decided : (Pid.t * int) list;
  mutable decided_rounds : (Pid.t * int) list;
}

let create ~name ~n_plus_1 =
  let start = pos ~round:1 ~sub:0 in
  let win = { at = Array.make n_plus_1 start; floor = start; retirers = [] } in
  let register fmt init =
    family_in win Round (fun r _ () ->
        Register.create ~name:(Printf.sprintf fmt name r) init)
  in
  let converge r sub k =
    Converge.create ~k ~size:n_plus_1 ~compare:Int.compare
      ~name:
        (if sub = 0 then Printf.sprintf "%s.cv.k%d/main.r%d" name k r
         else Printf.sprintf "%s.cv.k%d/glad.r%d.k%d" name k r sub)
  in
  {
    win;
    final = Register.create ~name:(name ^ ".D") None;
    d = register "%s.D[%d]" None;
    stable = register "%s.Stable[%d]" false;
    cv = family_in win Sub converge;
    max_round = 0;
    decided = [];
    decided_rounds = [];
  }

let family t level make = family_in t.win level make

let advance w =
  let least = ref max_int in
  for p = 0 to Array.length w.at - 1 do
    if w.at.(p) < !least then least := w.at.(p)
  done;
  if !least > w.floor then begin
    w.floor <- !least;
    List.iter (fun retire -> retire ()) w.retirers
  end

let move w me c =
  let old = w.at.(me) in
  w.at.(me) <- c;
  if old = w.floor then advance w

let enter t ~me ~round ~sub =
  let c = pos ~round ~sub in
  if sub lsr 32 <> 0 || c < t.win.at.(me) then
    invalid_arg "Rounds.enter: a position never goes back";
  if round > t.max_round then t.max_round <- round;
  move t.win me c

let decide t ~me ~round v =
  t.decided <- (me, v) :: t.decided;
  t.decided_rounds <- (me, round) :: t.decided_rounds;
  move t.win me max_int;
  Sim.output ~label:"decide" ~value:(string_of_int v)

let decisions t = List.rev t.decided
let decision_rounds t = List.rev t.decided_rounds
let rounds_entered t = t.max_round
let final t = t.final
let d t r = get t.d ~round:r ~sub:0 ()
let stable t r = get t.stable ~round:r ~sub:0 ()

let converge t ~round ~sub ~k =
  if k = 0 then (
    ignore (code t.cv ~round ~sub);
    Converge.zero)
  else get t.cv ~round ~sub k
