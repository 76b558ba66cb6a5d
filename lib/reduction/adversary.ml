open Kernel
open Memory

type instance = {
  fibers : Pid.t -> (unit -> unit) list;
  read_output : Pid.t -> Pid.Set.t option;
}

type candidate = {
  cand_name : string;
  make : n_plus_1:int -> f:int -> upsilon:Pid.Set.t Sim.source -> instance;
}

type phase = { index : int; output : Pid.Set.t; at_time : int }

type verdict =
  | Never_stabilizes of { flips : int; history : phase list }
  | Stuck of { on : Pid.Set.t; phase : int; history : phase list }

let pinned_upsilon ~n_plus_1 =
  let u = Pid.Set.of_list (List.filteri (fun i _ -> i < n_plus_1 - 1) (Pid.all ~n_plus_1)) in
  Sim.source ~name:"pinned-upsilon" ~sample:(fun _ _ -> u)
    ~render:Pid.Set.to_string ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set

(* One scheduling mode per stage of a phase. *)
type mode =
  | Warmup (* round-robin over everyone *)
  | One_step_each of Pid.t list (* the proof's "every process takes one step" *)
  | Restricted of Pid.Set.t (* only Π − L runs *)

let run candidate ~n_plus_1 ~f ~max_phases ~phase_budget =
  if f < 2 || f > n_plus_1 - 1 then
    invalid_arg "Adversary.run: theorem needs 2 <= f <= n";
  let upsilon = pinned_upsilon ~n_plus_1 in
  let inst = candidate.make ~n_plus_1 ~f ~upsilon in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let mode = ref Warmup in
  let rr = Policy.round_robin () in
  let policy ~now ~enabled =
    match !mode with
    | Warmup -> rr ~now ~enabled
    | One_step_each pending ->
        (* [None] is handled by the driver *)
        List.find_opt (fun p -> Pid.Set.mem p enabled) pending
    | Restricted allowed ->
        let eligible = Pid.Set.inter allowed enabled in
        if Pid.Set.is_empty eligible then None
        else (* round-robin within the allowed set *)
          rr ~now ~enabled:eligible
  in
  let fibers =
    Pid.all ~n_plus_1
    |> List.concat_map (fun pid ->
           List.mapi
             (fun j body ->
               Fiber.create ~pid ~name:(Printf.sprintf "cand-p%d-t%d" pid j) body)
             (inst.fibers pid))
  in
  let sched = Scheduler.observed ~pattern ~policy ~fibers () in
  (* Step the scheduler while tracking One_step_each progress. *)
  let step_once () =
    match Scheduler.step sched with
    | `Stepped pid ->
        (match !mode with
        | One_step_each pending ->
            mode := One_step_each (List.filter (fun p -> not (Pid.equal p pid)) pending)
        | Warmup | Restricted _ -> ());
        true
    | `Stopped _ -> false
  in
  let output_among among =
    Pid.Set.elements among
    |> List.fold_left
         (fun acc pid ->
           match acc with
           | Some _ -> acc
           | None -> inst.read_output pid)
         None
  in
  let full = Pid.Set.full ~n_plus_1 in
  (* Phase 0: run everyone until some output exists. *)
  let rec warmup budget =
    if budget = 0 then None
    else
      match output_among full with
      | Some l -> Some l
      | None -> if step_once () then warmup (budget - 1) else None
  in
  let history = ref [] in
  let record index output =
    history := { index; output; at_time = Scheduler.now sched } :: !history
  in
  match warmup phase_budget with
  | None ->
      (* The candidate never produced an output at all: treat as stuck on
         the empty set (it certainly does not implement Ωᶠ). *)
      Stuck { on = Pid.Set.empty; phase = 0; history = [] }
  | Some l0 ->
    record 0 l0;
    let rec phases index l =
      if index >= max_phases then
        Never_stabilizes { flips = index; history = List.rev !history }
      else begin
        (* every process takes exactly one step *)
        mode := One_step_each (Pid.all ~n_plus_1);
        let rec drain guard =
          match !mode with
          | One_step_each [] -> ()
          | One_step_each _ when guard > 0 ->
              ignore (step_once ());
              drain (guard - 1)
          | One_step_each _ | Warmup | Restricted _ -> ()
        in
        drain (4 * n_plus_1);
        (* then only Π − L runs until some *running* process shows an
           output ≠ L (the proof's L_{i+1} is the output of a process
           taking steps after R_i — an already-differing output counts) *)
        let allowed = Pid.Set.diff full l in
        mode := Restricted allowed;
        let differing () =
          Pid.Set.elements allowed
          |> List.fold_left
               (fun acc p ->
                 match acc with
                 | Some _ -> acc
                 | None -> (
                     match inst.read_output p with
                     | Some now when not (Pid.Set.equal now l) -> Some now
                     | Some _ | None -> None))
               None
        in
        let rec wait budget =
          match differing () with
          | Some l' -> `Flip l'
          | None ->
              if budget = 0 then `Stuck
              else if step_once () then wait (budget - 1)
              else `Stuck
        in
        match wait phase_budget with
        | `Flip l' ->
            record (index + 1) l';
            phases (index + 1) l'
        | `Stuck -> Stuck { on = l; phase = index; history = List.rev !history }
      end
    in
    phases 0 l0

let flips = function
  | Never_stabilizes { flips; _ } -> flips
  | Stuck { phase; _ } -> phase

let pp_verdict ppf = function
  | Never_stabilizes { flips; _ } ->
      Format.fprintf ppf "never stabilizes (%d flips forced)" flips
  | Stuck { on; phase; _ } ->
      Format.fprintf ppf
        "stuck on %a at phase %d: crashing that set yields a run where the \
         stable output contains no correct process"
        Pid.Set.pp on phase

module Candidates = struct
  (* Pad a set to exactly [f] members with the smallest ids not in it. *)
  let pad_to ~n_plus_1 ~f s =
    let rec add s = function
      | [] -> s
      | p :: rest ->
          if Pid.Set.cardinal s >= f then s
          else if Pid.Set.mem p s then add s rest
          else add (Pid.Set.add p s) rest
    in
    let trimmed =
      (* keep the f smallest if oversize *)
      Pid.Set.elements s |> List.filteri (fun i _ -> i < f) |> Pid.Set.of_list
    in
    add trimmed (Pid.all ~n_plus_1)

  let make_simple name body_of =
    {
      cand_name = name;
      make =
        (fun ~n_plus_1 ~f ~upsilon ->
          let outputs = Array.make n_plus_1 None in
          let set_output me s =
            Sim.atomic
              (Sim.Output { label = "omega_f-out"; value = Pid.Set.to_string s })
              (fun _ -> outputs.(me) <- Some s)
          in
          {
            fibers = (fun pid -> [ body_of ~n_plus_1 ~f ~upsilon ~set_output ~me:pid ]);
            read_output = (fun pid -> outputs.(pid));
          });
    }

  let complement_pad =
    make_simple "complement-pad" (fun ~n_plus_1 ~f ~upsilon ~set_output ~me () ->
        while true do
          let u = Sim.query upsilon in
          let c = Pid.Set.complement ~n_plus_1 u in
          set_output me (pad_to ~n_plus_1 ~f c)
        done)

  let static =
    make_simple "static" (fun ~n_plus_1 ~f ~upsilon:_ ~set_output ~me () ->
        let l = pad_to ~n_plus_1 ~f Pid.Set.empty in
        set_output me l;
        while true do
          Sim.yield ()
        done)

  let top_movers =
    {
      cand_name = "top-movers";
      make =
        (fun ~n_plus_1 ~f ~upsilon ->
          let outputs = Array.make n_plus_1 None in
          let stamps =
            Register.array ~name:"cand.ts" ~size:n_plus_1 ~init:(fun _ -> 0)
          in
          let body me () =
            while true do
              Sim.atomic
                (Sim.Write { obj = Register.name stamps.(me) })
                (fun _ ->
                  Register.poke stamps.(me) (Register.peek stamps.(me) + 1));
              let view = Register.collect stamps in
              let _ = Sim.query upsilon in
              let ranked =
                List.sort
                  (fun (p1, s1) (p2, s2) ->
                    if s1 <> s2 then Int.compare s2 s1 else Pid.compare p1 p2)
                  (List.mapi (fun p s -> (p, s)) (Array.to_list view))
              in
              let l =
                ranked
                |> List.filteri (fun i _ -> i < f)
                |> List.map fst |> Pid.Set.of_list
              in
              Sim.atomic
                (Sim.Output
                   { label = "omega_f-out"; value = Pid.Set.to_string l })
                (fun _ -> outputs.(me) <- Some l)
            done
          in
          {
            fibers = (fun pid -> [ body pid ]);
            read_output = (fun pid -> outputs.(pid));
          });
    }

  let rotation =
    make_simple "rotation" (fun ~n_plus_1 ~f ~upsilon:_ ~set_output ~me () ->
        let counter = ref 0 in
        while true do
          let start = !counter mod n_plus_1 in
          let l =
            List.init f (fun i -> (start + i) mod n_plus_1) |> Pid.Set.of_list
          in
          set_output me l;
          incr counter;
          Sim.yield ()
        done)

  (* Complement padded with a filler that rotates with the process's own
     step count — "hedge by cycling the padding". *)
  let complement_rotate =
    make_simple "complement-rotate"
      (fun ~n_plus_1 ~f ~upsilon ~set_output ~me () ->
        let counter = ref 0 in
        while true do
          incr counter;
          let u = Sim.query upsilon in
          let c = Pid.Set.complement ~n_plus_1 u in
          let rec fill s offset =
            if Pid.Set.cardinal s >= f then s
            else
              let cand = (!counter + offset) mod n_plus_1 in
              fill (Pid.Set.add cand s) (offset + 1)
          in
          set_output me (fill c 0)
        done)

  (* Complement-pad that refreshes its output only every [period] of its
     own steps — a slow reactor. *)
  let slow_complement =
    make_simple "slow-complement"
      (fun ~n_plus_1 ~f ~upsilon ~set_output ~me () ->
        let period = 50 in
        let counter = ref 0 in
        while true do
          incr counter;
          let u = Sim.query upsilon in
          if !counter mod period = 1 then
            set_output me (pad_to ~n_plus_1 ~f (Pid.Set.complement ~n_plus_1 u))
        done)

  let all =
    [
      complement_pad;
      static;
      top_movers;
      rotation;
      complement_rotate;
      slow_complement;
    ]
end
