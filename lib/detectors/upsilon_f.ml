open Kernel

let min_size ~n_plus_1 ~f = n_plus_1 - f

let legal_stable_sets ~pattern ~f =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let correct = Failure_pattern.correct pattern in
  Pid.Set.subsets ~n_plus_1
  |> List.filter (fun u ->
         Pid.Set.cardinal u >= min_size ~n_plus_1 ~f
         && not (Pid.Set.equal u correct))

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* How many masks of [bits] bits have at least [need] ones, saturating
   at [max_int]. C(bits, j + 1) comes from C(bits, j) by dividing
   before multiplying, so no step overflows: every C(63, j) fits an
   int. *)
let at_least ~bits ~need =
  let rec go j c acc =
    if j > bits then acc
    else
      let acc =
        if j < need then acc
        else if acc > max_int - c then max_int
        else acc + c
      in
      let g = gcd (bits - j) (j + 1) in
      go (j + 1) (c / ((j + 1) / g) * ((bits - j) / g)) acc
  in
  go 0 1 0

(* The [i]-th set, in mask order, among the sets of at least [need]
   members: walk down from the top pid, keeping a pid out while [i]
   still indexes the sets that lack it. *)
let unrank ~n_plus_1 ~need i =
  let rec go b ones i acc =
    if b < 0 then acc
    else
      let clear = at_least ~bits:b ~need:(need - ones) in
      if i < clear then go (b - 1) ones i acc
      else go (b - 1) (ones + 1) (i - clear) (Pid.Set.add b acc)
  in
  go (n_plus_1 - 1) 0 i Pid.Set.empty

(* How many sets of at least [need] members come before [u] in mask
   order. *)
let rank ~n_plus_1 ~need u =
  let rec go b ones acc =
    if b < 0 then acc
    else if Pid.Set.mem b u then
      go (b - 1) (ones + 1) (acc + at_least ~bits:b ~need:(need - ones))
    else go (b - 1) ones acc
  in
  go (n_plus_1 - 1) 0 0

let pick_stable_set rng ~pattern ~f =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let need = min_size ~n_plus_1 ~f in
  let correct = Failure_pattern.correct pattern in
  let sized = at_least ~bits:n_plus_1 ~need in
  if sized < max_int then begin
    (* what [Rng.pick] draws from [legal_stable_sets], without the
       list: an index among the legal sets, shifted past [correct] *)
    let skip = Pid.Set.cardinal correct >= need in
    let i = Rng.int rng (if skip then sized - 1 else sized) in
    let i = if skip && i >= rank ~n_plus_1 ~need correct then i + 1 else i in
    unrank ~n_plus_1 ~need i
  end
  else
    (* more legal sets than [Rng.int] can index (n+1 >= 62): draw
       uniform subsets until one is legal, more than half of them are *)
    let rec draw () =
      let u = Pid.Set.of_list (Rng.subset rng (Pid.all ~n_plus_1)) in
      if Pid.Set.cardinal u >= need && not (Pid.Set.equal u correct) then u
      else draw ()
    in
    draw ()

let make ?name ~rng ~pattern ~f ?stable_set ?stab_time () =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  if f < 1 || f > n_plus_1 - 1 then invalid_arg "Upsilon_f.make: bad f";
  if not (Failure_pattern.env_ok ~f pattern) then
    invalid_arg "Upsilon_f.make: pattern outside E_f";
  let correct = Failure_pattern.correct pattern in
  let stable_set =
    match stable_set with
    | Some u ->
        if Pid.Set.cardinal u < min_size ~n_plus_1 ~f then
          invalid_arg "Upsilon_f.make: stable set below range size";
        if Pid.Set.equal u correct then
          invalid_arg "Upsilon_f.make: stable set equals correct set";
        u
    | None -> pick_stable_set rng ~pattern ~f
  in
  (* default names are deterministic functions of the parameters, so
     identical worlds produce byte-identical traces *)
  Detector.stabilizing ?name ~family:"upsilon_f"
    ~default:(Printf.sprintf "upsilon_f(f=%d,t*=%d)" f)
    ~rng ?stab_time
    ~stable:(fun _ _ -> stable_set)
    ~chaos:
      (Detector.Chaos.subset_at_least ~n_plus_1 ~min_size:(min_size ~n_plus_1 ~f))
    ~render:Pid.Set.to_string ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set ()

let check (d : Pid.Set.t Detector.t) ~pattern ~f ~stab_by ~horizon =
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let correct = Failure_pattern.correct pattern in
  Result.bind
    (Detector.first_violation d (Pid.all ~n_plus_1) ~from:0 ~until:horizon
       (fun p time u ->
         if Pid.Set.cardinal u >= min_size ~n_plus_1 ~f then None
         else
           Some
             (Format.asprintf "range violated at (%a, %d): %a" Pid.pp p time
                Pid.Set.pp u)))
    (fun () ->
      match Detector.stable_value d pattern ~from:stab_by ~until:horizon with
      | None ->
          Error
            (Printf.sprintf "no common stable value on [%d, %d]" stab_by
               horizon)
      | Some u ->
          if Pid.Set.equal u correct then
            Error
              (Format.asprintf "stable value %a equals the correct set"
                 Pid.Set.pp u)
          else Ok ())
