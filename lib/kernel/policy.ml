type t = now:int -> enabled:Pid.Set.t -> Pid.t option

let round_robin () =
  let cursor = ref 0 in
  fun ~now:_ ~enabled ->
    if Pid.Set.is_empty enabled then None
    else
      (* Pick the first enabled pid at or after the cursor, wrapping
         to the first enabled pid when none is. *)
      let later = Pid.Set.from !cursor enabled in
      let chosen =
        Pid.Set.min_elt (if Pid.Set.is_empty later then enabled else later)
      in
      cursor := Pid.to_int chosen + 1;
      Some chosen

(* The same draw and index [Rng.pick] takes on the ascending list. *)
let random rng =
 fun ~now:_ ~enabled ->
  if Pid.Set.is_empty enabled then None
  else Some (Pid.Set.nth enabled (Rng.int rng (Pid.Set.cardinal enabled)))

let rec total_weight weight s acc =
  if Pid.Set.is_empty s then acc
  else
    let p = Pid.Set.min_elt s in
    total_weight weight (Pid.Set.remove p s) (acc + weight p)

let rec pick_weighted weight roll s acc =
  let p = Pid.Set.min_elt s in
  let acc = acc + weight p in
  if roll < acc then p else pick_weighted weight roll (Pid.Set.remove p s) acc

let weighted rng ~weights =
  let weight p =
    match List.assoc_opt p weights with
    | Some w when w > 0 -> w
    | Some _ -> invalid_arg "Policy.weighted: non-positive weight"
    | None -> 1
  in
  fun ~now:_ ~enabled ->
    if Pid.Set.is_empty enabled then None
    else
      let roll = Rng.int rng (total_weight weight enabled 0) in
      Some (pick_weighted weight roll enabled 0)

let solo pid =
 fun ~now:_ ~enabled -> if Pid.Set.mem pid enabled then Some pid else None

let rec next_scripted remaining then_ ~now ~enabled =
  match !remaining with
  | [] -> then_ ~now ~enabled
  | p :: rest ->
      remaining := rest;
      if Pid.Set.mem p enabled then Some p
      else next_scripted remaining then_ ~now ~enabled

let script pids ~then_ =
  let remaining = ref pids in
  fun ~now ~enabled -> next_scripted remaining then_ ~now ~enabled

let fair_after ~gst inner =
  if gst < 0 then invalid_arg "Policy.fair_after: negative gst";
  let rr = round_robin () in
  fun ~now ~enabled ->
    if now >= gst then rr ~now ~enabled else inner ~now ~enabled

let stop_after limit inner =
  let taken = ref 0 in
  fun ~now ~enabled ->
    if !taken >= limit then None
    else (
      incr taken;
      inner ~now ~enabled)

let custom f = f
