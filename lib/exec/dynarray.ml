type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () = { data = Array.make (max capacity 1) 0; len = 0 }
let length t = t.len
let clear t = t.len <- 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Dynarray.get: index out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Dynarray.set: index out of bounds";
  t.data.(i) <- v

let ensure t cap =
  let n = Array.length t.data in
  if cap > n then begin
    let grown = Array.make (max cap (2 * n)) 0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end

let push t v =
  ensure t (t.len + 1);
  t.data.(t.len) <- v;
  t.len <- t.len + 1

(* Insertion sort over the live prefix (typical inputs are a handful of
   elements), then in-place dedup: equivalent to [List.sort_uniq
   Int.compare] over the same multiset. *)
let sort_uniq t =
  let a = t.data in
  for i = 1 to t.len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  if t.len > 1 then begin
    let w = ref 1 in
    for r = 1 to t.len - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    t.len <- !w
  end
