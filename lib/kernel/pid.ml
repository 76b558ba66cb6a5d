type t = int

(* A set is one OCaml int, so a pid is one of its [Sys.int_size] bits. *)
let max_procs = Sys.int_size

let of_index i =
  if i < 0 then invalid_arg "Pid.of_index: negative index";
  i

let to_int t = t
let compare = Int.compare
let equal = Int.equal
let pp ppf t = Format.fprintf ppf "p%d" (t + 1)
let to_string t = "p" ^ string_of_int (t + 1)

let check_size ~who n_plus_1 =
  if n_plus_1 <= 0 then invalid_arg (who ^ ": need at least one process");
  if n_plus_1 > max_procs then
    invalid_arg (Printf.sprintf "%s: at most %d processes" who max_procs)

let all ~n_plus_1 =
  check_size ~who:"Pid.all" n_plus_1;
  List.init n_plus_1 (fun i -> i)

(* Bit [p] of a set is set iff pid [p] is a member. The helpers below
   are top-level and closure-free: the scheduler calls them on every
   step. *)

(* Index of the lowest set bit of a non-zero word, by halving. *)
let lowest_index s =
  let s = ref (s land -s) and i = ref 0 in
  if !s land 0xFFFF_FFFF = 0 then (s := !s lsr 32; i := 32);
  if !s land 0xFFFF = 0 then (s := !s lsr 16; i := !i + 16);
  if !s land 0xFF = 0 then (s := !s lsr 8; i := !i + 8);
  if !s land 0xF = 0 then (s := !s lsr 4; i := !i + 4);
  if !s land 0x3 = 0 then (s := !s lsr 2; i := !i + 2);
  if !s land 0x1 = 0 then i := !i + 1;
  !i

(* Index of the highest set bit of a non-zero word. *)
let highest_index s =
  let s = ref s and i = ref 0 in
  if !s lsr 32 <> 0 then (s := !s lsr 32; i := 32);
  if !s lsr 16 <> 0 then (s := !s lsr 16; i := !i + 16);
  if !s lsr 8 <> 0 then (s := !s lsr 8; i := !i + 8);
  if !s lsr 4 <> 0 then (s := !s lsr 4; i := !i + 4);
  if !s lsr 2 <> 0 then (s := !s lsr 2; i := !i + 2);
  if !s lsr 1 <> 0 then i := !i + 1;
  !i

let rec popcount s acc =
  if s = 0 then acc else popcount (s land (s - 1)) (acc + 1)

module Set = struct
  type elt = t
  type t = int

  let in_range p = p >= 0 && p < max_procs

  let bit p =
    if not (in_range p) then
      invalid_arg
        (Printf.sprintf "Pid.Set: pid %d outside 0..%d" p (max_procs - 1));
    1 lsl p

  (* The members strictly above / strictly below [p], for any int [p]. *)
  let above p s =
    if p < 0 then s
    else if p >= max_procs - 1 then 0
    else s land (-1 lsl (p + 1))

  let below p s =
    if p <= 0 then 0 else if p >= max_procs then s else s land ((1 lsl p) - 1)

  let empty = 0
  let is_empty s = s = 0
  let mem p s = in_range p && s land (1 lsl p) <> 0
  let add p s = s lor bit p
  let singleton = bit
  let remove p s = if mem p s then s land lnot (1 lsl p) else s
  let union = ( lor )
  let inter = ( land )
  let diff a b = a land lnot b
  let disjoint a b = a land b = 0
  let subset a b = a land lnot b = 0
  let equal = Int.equal
  let cardinal s = popcount s 0

  (* Stdlib's order: lexicographic on the ascending members, a prefix
     first. At the lowest differing bit, the set holding it is smaller
     unless the other set has nothing above it. *)
  let compare a b =
    if a = b then 0
    else
      let d = a lxor b in
      let low = d land -d in
      let higher = lnot (low lor (low - 1)) in
      if a land low <> 0 then if b land higher <> 0 then -1 else 1
      else if a land higher <> 0 then 1
      else -1

  let min_elt s = if s = 0 then raise Not_found else lowest_index s
  let min_elt_opt s = if s = 0 then None else Some (lowest_index s)
  let max_elt s = if s = 0 then raise Not_found else highest_index s
  let max_elt_opt s = if s = 0 then None else Some (highest_index s)
  let choose = min_elt
  let choose_opt = min_elt_opt
  let find p s = if mem p s then p else raise Not_found
  let find_opt p s = if mem p s then Some p else None

  let from p s = if p <= 0 then s else above (p - 1) s

  let rec nth s i =
    if s = 0 || i < 0 then invalid_arg "Pid.Set.nth: index out of range"
    else if i = 0 then lowest_index s
    else nth (s land (s - 1)) (i - 1)

  let rec iter f s =
    if s <> 0 then begin
      f (lowest_index s);
      iter f (s land (s - 1))
    end

  let rec fold f s acc =
    if s = 0 then acc else fold f (s land (s - 1)) (f (lowest_index s) acc)

  let rec for_all f s =
    s = 0 || (f (lowest_index s) && for_all f (s land (s - 1)))

  let rec exists f s =
    s <> 0 && (f (lowest_index s) || exists f (s land (s - 1)))

  let filter f s = fold (fun p acc -> if f p then acc else remove p acc) s s

  let filter_map f s =
    fold (fun p acc -> match f p with Some q -> add q acc | None -> acc) s 0

  let map f s = fold (fun p acc -> add (f p) acc) s 0
  let partition f s =
    let yes = filter f s in
    (yes, diff s yes)
  let split p s = (below p s, mem p s, above p s)

  let rec find_first_opt f s =
    if s = 0 then None
    else
      let p = lowest_index s in
      if f p then Some p else find_first_opt f (s land (s - 1))

  let rec find_last_opt f s =
    if s = 0 then None
    else
      let p = highest_index s in
      if f p then Some p else find_last_opt f (s land lnot (1 lsl p))

  let find_first f s =
    match find_first_opt f s with Some p -> p | None -> raise Not_found

  let find_last f s =
    match find_last_opt f s with Some p -> p | None -> raise Not_found

  (* Built from the top down, so the list comes out ascending. *)
  let rec elements_into s acc =
    if s = 0 then acc
    else
      let p = highest_index s in
      elements_into (s land lnot (1 lsl p)) (p :: acc)

  let elements s = elements_into s []
  let to_list = elements
  let of_list l = List.fold_left (fun acc p -> add p acc) 0 l

  let rec to_seq s () =
    if s = 0 then Seq.Nil else Seq.Cons (lowest_index s, to_seq (s land (s - 1)))

  let rec to_rev_seq s () =
    if s = 0 then Seq.Nil
    else
      let p = highest_index s in
      Seq.Cons (p, to_rev_seq (s land lnot (1 lsl p)))

  let to_seq_from p s = to_seq (from p s)
  let add_seq seq s = Seq.fold_left (fun acc p -> add p acc) s seq
  let of_seq seq = add_seq seq 0
  let of_indices indices = of_list (List.map of_index indices)

  let pp ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp)
      (elements s)

  let to_string s = Format.asprintf "%a" pp s

  let full ~n_plus_1 =
    check_size ~who:"Pid.Set.full" n_plus_1;
    if n_plus_1 = max_procs then -1 else (1 lsl n_plus_1) - 1

  let complement ~n_plus_1 s = diff (full ~n_plus_1) s

  (* The set for mask [m] is [m], so mask order is kept. *)
  let subsets ~n_plus_1 =
    check_size ~who:"Pid.Set.subsets" n_plus_1;
    if n_plus_1 > 20 then invalid_arg "Pid.Set.subsets: system too large";
    List.init ((1 lsl n_plus_1) - 1) (fun m -> m + 1)
end

module Map = Map.Make (Int)
