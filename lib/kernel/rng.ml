(* The 64-bit state lives unboxed in 8 bytes, and the draw is inlined,
   so a draw allocates nothing: a boxed [int64] field would allocate on
   every draw, and the random policy draws on every step. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set t 0 state;
  t

let create seed = of_state (mix (Int64.of_int seed))
let reseed t seed = set t 0 (mix (Int64.of_int seed))

let[@inline] next64 t =
  let state = Int64.add (get t 0) gamma in
  set t 0 state;
  mix state

let split t = of_state (mix (next64 t))

let rec int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively. *)
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  let r = v mod bound in
  (* redraw from the incomplete block of [bound] values at the top,
     which would favour the small residues *)
  if v - r > max_int - (bound - 1) then int t bound else r

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t l =
  let arr = Array.of_list l in
  shuffle t arr;
  Array.to_list arr

let subset t ?(proper = false) ?(nonempty = false) l =
  let n = List.length l in
  let rec attempt () =
    let chosen = List.filter (fun _ -> bool t) l in
    let k = List.length chosen in
    if (nonempty && k = 0) || (proper && k = n) then
      if n = 0 || (proper && nonempty && n <= 1) then
        invalid_arg "Rng.subset: constraints unsatisfiable"
      else attempt ()
    else chosen
  in
  attempt ()
