open Memory

type 'a proposal = Unwritten | Small of 'a list | Large

type 'a shared = {
  k : int;
  compare : 'a -> 'a -> int;
  phase1 : 'a option Snapshot.t;
  phase2 : 'a proposal Snapshot.t;
  mutable drop_phase2 : bool;
      (* planted Mutant.Converge_drop_phase2: commit straight after phase 1 *)
}

(* 0-converge takes no step and touches no object, so it needs none. *)
type 'a instance = Zero | Shared of 'a shared

let create ~name ~k ~size ~compare =
  if k < 0 then invalid_arg "Converge.create: negative k";
  if size <= 0 then invalid_arg "Converge.create: non-positive size";
  if k = 0 then Zero
  else
    Shared
      {
        k;
        compare;
        phase1 =
          Snapshot.create ~name:(name ^ ".a1") ~size ~init:(fun _ -> None);
        phase2 =
          Snapshot.create ~name:(name ^ ".a2") ~size ~init:(fun _ -> Unwritten);
        drop_phase2 = false;
      }

let zero = Zero

let k_of = function Zero -> 0 | Shared t -> t.k

let unsafe_plant inst m =
  match (inst, m) with
  | Shared t, Kernel.Mutant.Converge_drop_phase2 -> t.drop_phase2 <- true
  | _ -> ()

let min_of = function
  | [] -> assert false (* small proposals are never empty: V₁ ∋ own v *)
  | first :: _ -> first (* lists are sorted ascending *)

let run inst ~me v =
  match inst with
  | Zero -> (v, false)
  | Shared t -> begin
    Snapshot.update t.phase1 ~me (Some v);
    let seen1 = Snapshot.scan t.phase1 in
    let v1 =
      Array.to_list seen1 |> List.filter_map Fun.id |> List.sort_uniq t.compare
    in
    let small = List.length v1 <= t.k in
    if t.drop_phase2 then (if small then (min_of v1, true) else (v, false))
    else begin
      let proposal = if small then Small v1 else Large in
      Snapshot.update t.phase2 ~me proposal;
      let seen2 = Snapshot.scan t.phase2 in
      let smalls, saw_large =
        Array.fold_left
          (fun (smalls, large) -> function
            | Unwritten -> (smalls, large)
            | Small vals -> (vals :: smalls, large)
            | Large -> (smalls, true))
          ([], false) seen2
      in
      if small && not saw_large then (min_of v1, true)
      else
        (* Adopt the most informed (largest) visible small proposal; they
           form a containment chain, so "largest" is well defined. *)
        match
          List.fold_left
            (fun best vals ->
              match best with
              | None -> Some vals
              | Some b ->
                  if List.length vals > List.length b then Some vals else best)
            None smalls
        with
        | Some vals -> (min_of vals, false)
        | None -> (v, false)
    end
  end
