let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let mean_int l = mean (List.map float_of_int l)

let percentile q xs =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  match xs with
  | [] -> None
  | xs ->
      let sorted = Array.of_list (List.sort Int.compare xs) in
      let n = Array.length sorted in
      let rank = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      Some
        (if lo = hi then float_of_int sorted.(lo)
         else
           let w = rank -. float_of_int lo in
           ((1.0 -. w) *. float_of_int sorted.(lo))
           +. (w *. float_of_int sorted.(hi)))

let percentile_or ~default q xs =
  match percentile q xs with Some v -> v | None -> default
