(* The work units of the three batch workloads. A unit is one experiment
   table or one check verdict, produced by the public driver a user runs
   and rendered by the same function the CLI prints with
   ([Serve.Service.sweep_text] / [check_text]), so it can be compared
   with the reference captured in reference.txt.

   Units whose worlds dominate their workload also carry a [rebuild]:
   the same worlds built from public constructors and stepped by
   [Stepper], so the traced leg can time every step by layer. A rebuild
   must do exactly the work of its driver; the traced leg checks that
   by comparing deterministic counters with the untraced leg. *)

open Wfde

type t = {
  name : string;
  run : Obs.Span.scope -> string * bool;
      (** rendered output and whether the unit's claim held *)
  rebuild : (Stepper.t -> unit) option;
}

let exp ?rebuild name driver =
  let run spans =
    let o = driver spans in
    (Serve.Service.sweep_text [ o ], o.Experiments.ok)
  in
  { name; run; rebuild }

(* ------------------------------------------------------------ msgpass *)

(* Mirrors the per-world body of [Experiments.e10_abd_emulation]. *)
let e10_world st ~n_plus_1 ~i =
  let minority = (n_plus_1 - 1) / 2 and per_client = 2 in
  let rng = Rng.create ((n_plus_1 * 811) + i) in
  let pattern =
    Failure_pattern.random rng ~n_plus_1 ~max_faulty:minority ~latest:400
  in
  let abd = Memory.Abd.create ~name:"e10" ~n_plus_1 ~init:0 in
  let body me () =
    for j = 1 to per_client do
      Memory.Abd.write abd ~me ~key:"r" ((100 * (me + 1)) + j);
      ignore (Memory.Abd.read abd ~me ~key:"r")
    done
  in
  let _, steps =
    Stepper.exec st ~pattern ~policy:(Policy.random rng) ~horizon:800_000
      ~procs:(fun pid -> [ Memory.Abd.server abd ~me:pid; body pid ])
  in
  let ops = Memory.Abd.oplog abd in
  let live =
    Pid.Set.for_all
      (fun p ->
        List.length (List.filter (fun o -> Pid.equal o.Memory.Abd.pid p) ops)
        = 2 * per_client)
      (Failure_pattern.correct pattern)
  in
  if not (live && Memory.Abd.check_atomicity abd = Ok ()) then
    Stepper.fail st "e10 world n+1=%d i=%d" n_plus_1 i;
  let last = List.fold_left (fun acc o -> max acc o.Memory.Abd.responded) 0 ops in
  Stepper.useful st ~last ~steps

let last_decision trace =
  List.fold_left (fun acc (_, t) -> max acc t) 0 (Oracle.decision_times trace)

(* Mirrors the oracle-Omega rows of [Experiments.e11_msg_consensus]. *)
let e11_world st ~n_plus_1 ~i =
  let minority = (n_plus_1 - 1) / 2 in
  let rng = Rng.create ((n_plus_1 * 907) + i) in
  let pattern =
    Failure_pattern.random rng ~n_plus_1 ~max_faulty:minority ~latest:300
  in
  let omega = Omega.make ~rng ~pattern () in
  let proto =
    Agreement.Msg_consensus.create ~name:"mc" ~n_plus_1
      ~omega:(Detector.source omega)
  in
  let trace, steps =
    Stepper.exec st ~pattern ~policy:(Policy.random rng) ~horizon:3_000_000
      ~procs:(fun pid ->
        Agreement.Msg_consensus.fibers proto ~me:pid ~input:(800 + pid))
  in
  let verdict =
    Sa_spec.check ~k:1 ~pattern
      ~proposals:(List.map (fun p -> (p, 800 + p)) (Pid.all ~n_plus_1))
      ~decisions:(Agreement.Msg_consensus.decisions proto)
      ()
  in
  if
    not
      (Sa_spec.all_ok verdict
      && Agreement.Msg_consensus.check_memory proto = Ok ())
  then Stepper.fail st "e11 world n+1=%d i=%d" n_plus_1 i;
  Stepper.useful st ~last:(last_decision trace) ~steps

(* The link families of [Experiments.d1_hb_conformance]. *)
let hb_grid =
  [
    ("reliable", { Link.gst = 0; delta = 1; pre_delay = 0; loss_pct = 0; link_seed = 1 });
    ("lossy", { Link.gst = 40; delta = 2; pre_delay = 0; loss_pct = 60; link_seed = 2 });
    ("delayed", { Link.gst = 40; delta = 3; pre_delay = 12; loss_pct = 0; link_seed = 3 });
    ("adversarial", { Link.gst = 80; delta = 4; pre_delay = 10; loss_pct = 80; link_seed = 4 });
  ]

(* Mirrors [Experiments.d1_hb_conformance] through
   [Harness.run_hb_detector]. *)
let d1_worlds st ~seeds =
  let module Hb = Detectors.Heartbeat in
  List.iter
    (fun (label, net) ->
      List.iter
        (fun mode ->
          for i = 0 to seeds - 1 do
            let world =
              Harness.random_world
                ~seed:((Hashtbl.hash label * 53) + (31 * i))
                ~n_plus_1:3 ~max_faulty:1 ~latest:60 ()
            in
            let pattern = world.Harness.pattern in
            let eng =
              match mode with
              | `Ev_perfect -> Detectors.Hb_ev_perfect.make ~n_plus_1:3 ~net ()
              | `Ev_strong -> Detectors.Hb_ev_strong.make ~n_plus_1:3 ~net ()
            in
            let trace, steps =
              Stepper.exec st ~pattern
                ~policy:(Policy.fair_after ~gst:net.Link.gst world.Harness.policy)
                ~horizon:6_000
                ~procs:(fun pid -> [ Hb.fiber eng ~me:pid ])
            in
            let horizon = Trace.last_time trace in
            let link = Hb.link eng in
            let verdict =
              Result.bind (Link.check_partial_synchrony link) (fun () ->
                  Result.bind (Link.check_crash_isolation link ~pattern)
                    (fun () ->
                      match mode with
                      | `Ev_perfect -> Detectors.Hb_ev_perfect.check eng ~pattern ~horizon
                      | `Ev_strong -> Detectors.Hb_ev_strong.check eng ~pattern ~horizon))
            in
            if Result.is_error verdict then
              Stepper.fail st "d1 world %s i=%d" label i;
            Stepper.useful st
              ~last:(Hb.stabilized_at eng ~only:(Failure_pattern.is_correct pattern))
              ~steps
          done)
        [ `Ev_perfect; `Ev_strong ])
    hb_grid

let e10_sizes = [ 3; 5; 7 ]
(* E11 at n+1 = 3 alone takes 4.6 s; leaving it out keeps a pass short
   enough for three passes in one run. *)
let e11_sizes = [ 5 ]
let d1_seeds = 2
let d2_seeds = 1

let msgpass =
  List.map
    (fun n ->
      exp (Printf.sprintf "e10@%d" n)
        (fun _ -> Experiments.e10_abd_emulation ~seeds:1 ~sizes:[ n ] ())
        ~rebuild:(fun st -> e10_world st ~n_plus_1:n ~i:0))
    e10_sizes
  @ List.map
      (fun n ->
        exp (Printf.sprintf "e11@%d" n)
          (fun _ -> Experiments.e11_msg_consensus ~seeds:1 ~sizes:[ n ] ())
          ~rebuild:(fun st -> e11_world st ~n_plus_1:n ~i:0))
      e11_sizes
  @ [
      exp "d1"
        (fun spans -> Experiments.d1_hb_conformance ~seeds:d1_seeds ~spans ())
        ~rebuild:(fun st -> d1_worlds st ~seeds:d1_seeds);
      exp "d2" (fun spans -> Experiments.d2_hb_vs_oracle ~seeds:d2_seeds ~spans ());
    ]

(* ---------------------------------------------------------------- shm *)

(* Mirrors [Harness.run_extraction_of] for the oracle sources. *)
let extraction st ~f ~source (world : Harness.world) =
  let horizon = 150_000 and tail = 25_000 and stab_time = 120 in
  let pattern = world.pattern and rng = world.world_rng in
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let run (type v) (detector : v Detector.t) (equal : v -> v -> bool)
      (phi : v Phi.map) =
    let ex =
      Extract_upsilon.create ~name:"ex" ~n_plus_1 ~f
        ~detector:(Detector.source detector) ~equal ~phi
    in
    let trace, steps =
      Stepper.exec st ~pattern ~policy:world.policy ~horizon
        ~procs:(fun pid -> Extract_upsilon.fibers ex ~me:pid)
    in
    let correct = Failure_pattern.correct pattern in
    let stabilized_at =
      List.fold_left
        (fun acc (pid, time, _) ->
          if Pid.Set.mem pid correct then max acc time else acc)
        0 (Extract_upsilon.change_log ex)
    in
    let last_time = Trace.last_time trace in
    if Result.is_error (Extract_upsilon.check ex ~pattern ~last_time ~tail) then
      Stepper.fail st "e5 extraction world";
    Stepper.useful st ~last:stabilized_at ~steps
  in
  match source with
  | `Omega ->
      run (Omega.make ~rng ~pattern ~stab_time ()) Pid.equal (Phi.omega ~n_plus_1 ~f)
  | `Omega_k k ->
      run (Omega_k.make ~rng ~pattern ~k ~stab_time ()) Pid.Set.equal
        (Phi.omega_k ~n_plus_1 ~f ~k)
  | `Ev_perfect ->
      run (Detectors.Ev_perfect.make ~rng ~pattern ~stab_time ()) Pid.Set.equal
        (Phi.suspicion ~n_plus_1 ~f)
  | `Perfect ->
      run (Detectors.Perfect.make ~pattern) Pid.Set.equal (Phi.suspicion ~n_plus_1 ~f)
  | `Upsilon_f ->
      run (Upsilon_f.make ~rng ~pattern ~f ~stab_time ()) Pid.Set.equal
        (Phi.upsilon_f ~n_plus_1 ~f)
  | `Vitality watched ->
      run (Detectors.Vitality.make ~rng ~pattern ~watched ~stab_time ()) Bool.equal
        (Phi.vitality ~n_plus_1 ~f ~watched)
  | `Omega_batched w ->
      run (Omega.make ~rng ~pattern ~stab_time ()) Pid.equal
        (Phi.with_batches w (Phi.omega ~n_plus_1 ~f))

(* The oracle sources of [Experiments.e5_fig3_extraction]. *)
let e5_worlds st ~seeds =
  List.iter
    (fun (label, source) ->
      for i = 0 to seeds - 1 do
        extraction st ~f:2 ~source
          (Harness.random_world ~seed:((Hashtbl.hash label * 31) + i) ~n_plus_1:4
             ~max_faulty:2 ~latest:150 ())
      done)
    [
      ("Omega", `Omega);
      ("Omega_k (k=2)", `Omega_k 2);
      ("eventually-perfect", `Ev_perfect);
      ("perfect", `Perfect);
      ("Upsilon^f itself", `Upsilon_f);
      ("vitality(p1)", `Vitality 0);
      ("Omega, w(sigma)=3", `Omega_batched 3);
    ]

(* Mirrors [Experiments.a2_escape_ablation] through [Harness.run_fig1]. *)
let a2_worlds st ~seeds =
  let all = Upsilon_sa.all_escapes in
  let n_plus_1 = 3 in
  List.iter
    (fun (escapes, expect_termination) ->
      let terminated = ref 0 in
      for i = 0 to seeds - 1 do
        let pattern = Failure_pattern.no_failures ~n_plus_1 in
        let policy =
          if i mod 2 = 0 then Policy.round_robin ()
          else Policy.random (Rng.create (900 + i))
        in
        let upsilon =
          Upsilon.make ~rng:(Rng.create (800 + i)) ~pattern ~stab_time:0 ()
        in
        let proto =
          Upsilon_sa.create ~escapes ~name:"sa" ~n_plus_1
            ~upsilon:(Detector.source upsilon) ()
        in
        let trace, steps =
          Stepper.exec st ~pattern ~policy ~horizon:400_000
            ~procs:(fun pid -> [ Upsilon_sa.proposer proto ~me:pid ~input:(100 + pid) ])
        in
        let verdict =
          Sa_spec.check ~k:(n_plus_1 - 1) ~pattern
            ~proposals:(List.map (fun p -> (p, 100 + p)) (Pid.all ~n_plus_1))
            ~decisions:(Upsilon_sa.decisions proto) ()
        in
        if verdict.Sa_spec.termination then incr terminated;
        Stepper.useful st ~last:(last_decision trace) ~steps
      done;
      if expect_termination <> (!terminated = seeds) then
        Stepper.fail st "a2 escape configuration")
    [
      (all, true);
      ({ all with watch_stable = false }, true);
      ({ all with watch_round_d = false }, true);
      ({ all with watch_final = false }, true);
      ({ all with watch_round_d = false; watch_final = false }, false);
    ]

let e5_seeds = 2
let e6_seeds = 5
let a2_seeds = 2

let shm =
  [
    exp "e1" (fun _ -> Experiments.e1_fig1_set_agreement ());
    exp "e2" (fun _ -> Experiments.e2_fig2_f_resilient ());
    exp "e5" (fun _ -> Experiments.e5_fig3_extraction ~seeds:e5_seeds ())
      ~rebuild:(fun st -> e5_worlds st ~seeds:e5_seeds);
    exp "e6" (fun _ -> Experiments.e6_pairwise_reductions ~seeds:e6_seeds ());
    exp "e7" (fun _ -> Experiments.e7_upsilon_vs_omega_n ());
    exp "a2" (fun _ -> Experiments.a2_escape_ablation ~seeds:a2_seeds ())
      ~rebuild:(fun st -> a2_worlds st ~seeds:a2_seeds);
    exp "a3" (fun _ -> Experiments.a3_fig2_snapshot_cost ());
  ]

(* -------------------------------------------------------------- check *)

let check_jobs = 2

type check_config = {
  obj : Scenario.obj;
  procs : int;
  depth : int;
  horizon : int;
  mutant : Mutant.t option;
}

let check_configs =
  let c ?mutant ?(horizon = 400) obj procs depth =
    { obj; procs; depth; horizon; mutant }
  in
  let chaos = Scenario.default_chaos in
  [
    c Scenario.Abd 3 10;
    c Scenario.Register 3 8;
    c Scenario.Commit_adopt 3 8;
    c Scenario.Snapshot 3 12;
    c Scenario.Snapshot 4 8;
    c (Scenario.Link_chaos chaos) 3 10;
    c ~mutant:Mutant.Abd_skip_write_back Scenario.Abd 3 10;
    c ~mutant:Mutant.Snapshot_single_collect Scenario.Snapshot 3 12;
    c ~mutant:Mutant.Converge_drop_phase2 Scenario.Commit_adopt 2 6;
    c ~mutant:Mutant.Hb_timeout_never_increased ~horizon:500
      (Scenario.Hb_detector chaos) 2 5;
  ]

let check_name c =
  Printf.sprintf "%s-p%d-d%d%s"
    (match c.obj with
    | Scenario.Hb_detector _ -> "hb-detector"
    | Scenario.Link_chaos _ -> "link-chaos"
    | o -> Scenario.to_string o)
    c.procs c.depth
    (match c.mutant with None -> "" | Some m -> "-" ^ Mutant.to_string m)

(* A clean check sweeps every pattern and sums per-pattern statistics,
   so its output does not depend on the pattern order: the seed shuffles
   it. A mutant check stops at the first violating pattern, so it keeps
   the scenario's own order. *)
let check_unit ~rng c =
  let patterns =
    let ps = Scenario.patterns c.obj ~procs:c.procs in
    match c.mutant with None -> Rng.permutation rng ps | Some _ -> ps
  in
  let run spans =
    let o =
      Harness.check_exhaustive ~jobs:check_jobs ~procs:c.procs ~depth:c.depth
        ~horizon:c.horizon ~patterns ~spans ?mutant:c.mutant c.obj
    in
    let ok =
      match (c.mutant, o.Harness.violation) with
      | None, None -> true
      | Some _, Some v -> v.Harness.shrunk
      | None, Some _ | Some _, None -> false
    in
    (Serve.Service.check_text o, ok)
  in
  { name = check_name c; run; rebuild = None }

let check ~rng = List.map (check_unit ~rng) check_configs

(* ---------------------------------------------------------- workloads *)

let batch = [ "msgpass"; "shm"; "check" ]

let for_workload ~rng = function
  | "msgpass" -> Some msgpass
  | "shm" -> Some shm
  | "check" -> Some (check ~rng)
  | _ -> None
