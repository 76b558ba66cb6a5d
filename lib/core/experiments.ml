open Kernel
open Memory
open Reduction

type outcome = {
  id : string;
  claim : string;
  table : Report.table;
  ok : bool;
}

(* The share of [xs] that pass [ok], in [0, 1]. *)
let pass_rate ok xs =
  Stats.mean (List.map (fun x -> if ok x then 1.0 else 0.0) xs)

(* Clear [all_ok] unless every one of [xs] passes [ok]. *)
let require all_ok ok xs = if not (List.for_all ok xs) then all_ok := false

let max_distinct runs =
  List.fold_left
    (fun acc m -> max acc m.Harness.verdict.Agreement.Sa_spec.distinct_decided)
    0 runs

(* Run one experiment's independent units on a worker pool. Results come
   back in input order whatever [jobs] is, so the table folds out
   identically at -j 1 and -j N; unit bodies must be self-contained
   (build their own world, mutate no enclosing refs — fold verdicts over
   the returned list instead). *)
let pmap ~jobs xs f = Exec.Pool.map_list (Exec.Pool.create ~jobs ()) ~f xs
let pseeds ~jobs seeds f = pmap ~jobs (List.init seeds Fun.id) f

(* A world drawn from one generator: the failure pattern first, then
   the random policy and the detector share what is left of it (unlike
   [Harness.random_world], which splits the policy off). *)
let rng_world ~seed ~n_plus_1 ~max_faulty ~latest =
  let rng = Rng.create seed in
  let pattern = Failure_pattern.random rng ~n_plus_1 ~max_faulty ~latest in
  { Harness.pattern; policy = Policy.random rng; world_rng = rng }

(* The failure-free world under lock-step round-robin, with its detector
   drawn from [Rng.create seed] (e7, e8). *)
let lockstep_world ~n_plus_1 ~seed =
  {
    Harness.pattern = Failure_pattern.no_failures ~n_plus_1;
    policy = Policy.round_robin ();
    world_rng = Rng.create seed;
  }

(* Fig 1 with all its escape reads, as every experiment but A2 runs it. *)
let fig1 stab_time =
  Harness.Fig1 { stab_time; escapes = Agreement.Upsilon_sa.all_escapes }

(* ------------------------------------------------------------------ E1 *)

let e1_seeds = 25
let e1_fig1_set_agreement ?(jobs = 1) ?(seeds = e1_seeds) ?(sizes = [ 2; 3; 4; 5; 6 ])
    () =
  let all_ok = ref true in
  let rows =
    List.map
      (fun n_plus_1 ->
        let runs =
          pseeds ~jobs seeds (fun i ->
              let world =
                Harness.random_world ~seed:((n_plus_1 * 1000) + i) ~n_plus_1
                  ~max_faulty:(n_plus_1 - 1) ()
              in
              Harness.run (Harness.setup (fig1 None)) world)
        in
        require all_ok Harness.ok runs;
        [
          Report.cell_int n_plus_1;
          Report.cell_int (n_plus_1 - 1);
          Report.cell_int seeds;
          Report.cell_pct (pass_rate Harness.ok runs);
          Report.cell_float
            (Stats.mean_int (List.map (fun m -> m.Harness.last_decision_time) runs));
          Report.cell_float
            (Stats.percentile_or ~default:0.0 0.95
               (List.map (fun m -> m.Harness.last_decision_time) runs));
          Report.cell_float (Stats.mean_int (List.map (fun m -> m.Harness.rounds) runs));
          Report.cell_int (max_distinct runs);
        ])
      sizes
  in
  {
    id = "e1";
    claim =
      "Fig 1 / Theorem 2: Upsilon + registers solve n-set-agreement among \
       n+1 processes, tolerating n crashes (termination, <= n values, \
       validity on every run)";
    table =
      {
        Report.title = "E1: Fig-1 Upsilon-based n-set-agreement";
        headers =
          [ "n+1"; "k=n"; "runs"; "spec-ok"; "mean t(decide)"; "p95 t(decide)"; "mean rounds"; "max distinct" ];
        rows;
      };
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ E2 *)

let e2_seeds = 15
let e2_fig2_f_resilient ?(jobs = 1) ?(seeds = e2_seeds) ?(sizes = [ 3; 4; 5; 6 ]) () =
  let all_ok = ref true in
  let rows =
    List.concat_map
      (fun n_plus_1 ->
        List.init (n_plus_1 - 1) (fun fm1 ->
            let f = fm1 + 1 in
            let runs =
              pseeds ~jobs seeds (fun i ->
                  let world =
                    Harness.random_world
                      ~seed:((n_plus_1 * 7919) + (f * 131) + i)
                      ~n_plus_1 ~max_faulty:f ()
                  in
                  Harness.run
                    (Harness.setup
                       (Fig2 { f; snapshot = Snap.Registers; pinned = false }))
                    world)
            in
            require all_ok Harness.ok runs;
            [
              Report.cell_int n_plus_1;
              Report.cell_int f;
              Report.cell_int seeds;
              Report.cell_pct (pass_rate Harness.ok runs);
              Report.cell_float
                (Stats.mean_int (List.map (fun m -> m.Harness.last_decision_time) runs));
              Report.cell_int (max_distinct runs);
            ]))
      sizes
  in
  {
    id = "e2";
    claim =
      "Fig 2 / Theorem 6: Upsilon^f + registers solve f-resilient \
       f-set-agreement for every 1 <= f <= n";
    table =
      {
        Report.title = "E2: Fig-2 Upsilon^f-based f-set-agreement";
        headers = [ "n+1"; "f"; "runs"; "spec-ok"; "mean t(last decide)"; "max distinct" ];
        rows;
      };
    ok = !all_ok;
  }

(* ------------------------------------------------------------- E3 / E4 *)

let adversary_table ~jobs ~id ~claim ~title ~n_plus_1 ~f ~max_phases =
  (* both verdict shapes are defeats, so the claim holds whenever every
     run produces a verdict — which the type guarantees *)
  let rows =
    pmap ~jobs Adversary.Candidates.all
      (fun cand ->
        let defeat, detail =
          match
            Adversary.run cand ~n_plus_1 ~f ~max_phases ~phase_budget:8_000
          with
          | Adversary.Never_stabilizes { flips; _ } ->
              ("never stabilizes", Printf.sprintf "%d flips forced" flips)
          | Adversary.Stuck { on; phase; _ } ->
              ( "stuck",
                Format.asprintf "on %a at phase %d (all-crash extension kills it)"
                  Pid.Set.pp on phase )
        in
        [ cand.Adversary.cand_name; defeat; detail ])
  in
  {
    id;
    claim;
    table =
      {
        Report.title =
          Printf.sprintf "%s (n+1=%d, f=%d, %d phases max)" title n_plus_1 f
            max_phases;
        headers = [ "candidate extractor"; "defeat mode"; "detail" ];
        rows;
      };
    ok = true;
  }

let e3_phases = 25
let e3_theorem1_adversary ?(jobs = 1) ?(max_phases = e3_phases) () =
  adversary_table ~jobs ~id:"e3"
    ~claim:
      "Theorem 1: Upsilon is strictly weaker than Omega_n (n >= 2) - the \
       solo-schedule adversary defeats every candidate extractor"
    ~title:"E3: Theorem-1 adversary vs Upsilon->Omega_n candidates" ~n_plus_1:3
    ~f:2 ~max_phases

let e4_phases = 25
let e4_theorem5_adversary ?(jobs = 1) ?(max_phases = e4_phases) () =
  adversary_table ~jobs ~id:"e4"
    ~claim:
      "Theorem 5: Upsilon^f is strictly weaker than Omega^f (2 <= f <= n) - \
       same adversary in the f-resilient setting"
    ~title:"E4: Theorem-5 adversary vs Upsilon^f->Omega^f candidates"
    ~n_plus_1:5 ~f:3 ~max_phases

(* ------------------------------------------------------------------ E5 *)

let e5_seeds = 8
let e5_fig3_extraction ?(jobs = 1) ?(seeds = e5_seeds) ?(detectors = Harness.Oracle) () =
  let n_plus_1 = 4 in
  let f = 2 in
  let sources =
    [
      ("Omega", `Omega);
      ("Omega_k (k=2)", `Omega_k 2);
      ("eventually-perfect", `Ev_perfect Harness.Oracle);
      ("perfect", `Perfect);
      ("Upsilon^f itself", `Upsilon_f);
      ("vitality(p1)", `Vitality 0);
      ("Omega, w(sigma)=3", `Omega_batched 3);
    ]
    @
    (* Gated: the implemented (heartbeat) ◇P as one more stable source —
       the only row whose detector is computed inside the run. *)
    if detectors = Harness.Oracle then []
    else [ ("hb ev-perfect (implemented)", `Ev_perfect detectors) ]
  in
  let all_ok = ref true in
  let rows =
    List.map
      (fun (label, source) ->
        let results =
          pseeds ~jobs seeds (fun i ->
              let world =
                Harness.random_world
                  ~seed:((Hashtbl.hash label * 31) + i)
                  ~n_plus_1 ~max_faulty:f ~latest:150 ()
              in
              Harness.run_extraction_of ~f ~source world)
        in
        let ok (v, _) = Result.is_ok v in
        require all_ok ok results;
        [
          label;
          Report.cell_int seeds;
          Report.cell_pct (pass_rate ok results);
          Report.cell_float (Stats.mean_int (List.map snd results));
        ])
      sources
  in
  {
    id = "e5";
    claim =
      "Fig 3 / Theorem 10: every stable f-non-trivial detector can be \
       transformed into Upsilon^f (extracted output eventually stable, \
       common, of size >= n+1-f, and never the correct set)";
    table =
      {
        Report.title =
          Printf.sprintf "E5: Fig-3 extraction of Upsilon^f (n+1=%d, f=%d)"
            n_plus_1 f;
        headers = [ "source detector"; "runs"; "spec-ok"; "mean t(stabilize)" ];
        rows;
      };
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ E6 *)

let e6_seeds = 20
let e6_pairwise_reductions ?(jobs = 1) ?(seeds = e6_seeds) () =
  let open Detectors in
  let all_ok = ref true in
  let pct_ok results =
    require all_ok Fun.id results;
    Report.cell_pct (pass_rate Fun.id results)
  in
  let omega_to_upsilon =
    pseeds ~jobs seeds (fun i ->
        let rng = Rng.create (i + 1) in
        let n_plus_1 = 3 + (i mod 3) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
            ~latest:50
        in
        let d = Omega.make ~rng ~pattern ~stab_time:60 () in
        Pairwise.upsilon_of_omega ~n_plus_1 d |> fun u ->
        Upsilon.check u ~pattern ~stab_by:60 ~horizon:160 = Ok ())
  in
  let omega_n_to_upsilon =
    pseeds ~jobs seeds (fun i ->
        let rng = Rng.create (i + 100) in
        let n_plus_1 = 3 + (i mod 3) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
            ~latest:50
        in
        let d = Omega_k.make ~rng ~pattern ~k:(n_plus_1 - 1) ~stab_time:60 () in
        Pairwise.upsilon_of_omega_k ~n_plus_1 d |> fun u ->
        Upsilon.check u ~pattern ~stab_by:60 ~horizon:160 = Ok ())
  in
  let omega_f_to_upsilon_f =
    pseeds ~jobs seeds (fun i ->
        let rng = Rng.create (i + 200) in
        let n_plus_1 = 4 in
        let f = 1 + (i mod 3) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:50
        in
        let d = Omega_k.make ~rng ~pattern ~k:f ~stab_time:60 () in
        Pairwise.upsilon_of_omega_k ~n_plus_1 d |> fun u ->
        Upsilon_f.check u ~pattern ~f ~stab_by:60 ~horizon:160 = Ok ())
  in
  let two_proc_equivalence =
    pseeds ~jobs seeds (fun i ->
        let rng = Rng.create (i + 300) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1:2 ~max_faulty:1 ~latest:40
        in
        let omega = Omega.make ~rng ~pattern ~stab_time:50 () in
        let upsilon = Upsilon.make ~rng ~pattern ~stab_time:50 () in
        Upsilon.check
          (Pairwise.upsilon_of_omega ~n_plus_1:2 omega)
          ~pattern ~stab_by:50 ~horizon:150
        = Ok ()
        && Omega.check
             (Pairwise.omega_of_upsilon_2proc upsilon)
             ~pattern ~stab_by:50 ~horizon:150
           = Ok ())
  in
  let omega_to_anti =
    pseeds ~jobs seeds (fun i ->
        let rng = Rng.create (i + 400) in
        let n_plus_1 = 3 + (i mod 3) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
            ~latest:40
        in
        let omega = Omega.make ~rng ~pattern ~stab_time:50 () in
        Anti_omega.check
          (Pairwise.anti_omega_of_omega ~n_plus_1 omega)
          ~pattern ~stab_by:50 ~horizon:250
        = Ok ())
  in
  let ev_perfect_to_omega =
    pseeds ~jobs seeds (fun i ->
        let rng = Rng.create (i + 600) in
        let n_plus_1 = 3 + (i mod 3) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
            ~latest:40
        in
        let dp = Ev_perfect.make ~rng ~pattern ~stab_time:50 () in
        let stable_from = Ev_perfect.stable_from ~pattern ~stab_time:50 in
        Omega.check
          (Pairwise.omega_of_ev_perfect ~n_plus_1 dp)
          ~pattern ~stab_by:stable_from ~horizon:(stable_from + 100)
        = Ok ())
  in
  let ev_perfect_chain_to_upsilon =
    pseeds ~jobs seeds (fun i ->
        let rng = Rng.create (i + 700) in
        let n_plus_1 = 3 + (i mod 3) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
            ~latest:40
        in
        let dp = Ev_perfect.make ~rng ~pattern ~stab_time:50 () in
        let stable_from = Ev_perfect.stable_from ~pattern ~stab_time:50 in
        let chained =
          Pairwise.upsilon_of_omega ~n_plus_1
            (Pairwise.omega_of_ev_perfect ~n_plus_1 dp)
        in
        Upsilon.check chained ~pattern ~stab_by:stable_from
          ~horizon:(stable_from + 100)
        = Ok ())
  in
  let upsilon1_to_omega =
    pseeds ~jobs seeds (fun i ->
        let rng = Rng.create (i + 500) in
        let n_plus_1 = 3 in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:1 ~latest:60
        in
        let d = Upsilon_f.make ~rng ~pattern ~f:1 ~stab_time:40 () in
        let red =
          Pairwise.Omega_from_upsilon1.create ~name:"o1" ~n_plus_1
            ~upsilon1:(Detector.source d)
        in
        let result =
          Run.exec ~pattern
            ~policy:(Policy.random (Rng.split rng))
            ~horizon:60_000
            ~procs:(fun pid -> Pairwise.Omega_from_upsilon1.fibers red ~me:pid)
            ()
        in
        Pairwise.Omega_from_upsilon1.check red ~pattern
          ~last_time:result.Run.last_time
          ~tail:10_000
        = Ok ())
  in
  let rows =
    [
      [ "Omega -> Upsilon (complement)"; Report.cell_int seeds; pct_ok omega_to_upsilon ];
      [ "Omega_n -> Upsilon (complement)"; Report.cell_int seeds; pct_ok omega_n_to_upsilon ];
      [ "Omega^f -> Upsilon^f (complement)"; Report.cell_int seeds; pct_ok omega_f_to_upsilon_f ];
      [ "Omega <-> Upsilon at n=1"; Report.cell_int seeds; pct_ok two_proc_equivalence ];
      [ "Omega -> anti-Omega (cycling)"; Report.cell_int seeds; pct_ok omega_to_anti ];
      [ "<>P -> Omega (min unsuspected)"; Report.cell_int seeds; pct_ok ev_perfect_to_omega ];
      [ "<>P -> Omega -> Upsilon (chain)"; Report.cell_int seeds; pct_ok ev_perfect_chain_to_upsilon ];
      [ "Upsilon^1 -> Omega (timestamps)"; Report.cell_int seeds; pct_ok upsilon1_to_omega ];
    ]
  in
  {
    id = "e6";
    claim =
      "Section 4 / 5.3: the pairwise reductions between Omega-family \
       detectors and Upsilon-family detectors all preserve the target specs";
    table =
      {
        Report.title = "E6: pairwise detector reductions";
        headers = [ "reduction"; "runs"; "spec-ok" ];
        rows;
      };
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ E7 *)

let e7_seeds = 15
let e7_upsilon_vs_omega_n ?(jobs = 1) ?(seeds = e7_seeds)
    ?(stab_times = [ 0; 200; 800; 3200 ]) () =
  let n_plus_1 = 4 in
  let all_ok = ref true in
  (* The lock-step round-robin schedule with distinct inputs is the one
     where the oracle truly gates progress (no converge instance ever
     commits by lucky asymmetry), so t(decide) tracks the detector's
     stabilization time; random schedules give the average case. *)
  let rows =
    List.concat_map
      (fun stab_time ->
        let row label protocol =
          let run = Harness.run (Harness.setup protocol) in
          let locked = run (lockstep_world ~n_plus_1 ~seed:424242) in
          let randoms =
            pseeds ~jobs seeds (fun i ->
                run
                  (Harness.random_world ~seed:((stab_time * 17) + i) ~n_plus_1
                     ~max_faulty:(n_plus_1 - 1) ()))
          in
          require all_ok Harness.ok (locked :: randoms);
          [
            Report.cell_int stab_time;
            label;
            Report.cell_pct (pass_rate Harness.ok (locked :: randoms));
            Report.cell_int locked.Harness.last_decision_time;
            Report.cell_float
              (Stats.mean_int
                 (List.map (fun m -> m.Harness.last_decision_time) randoms));
          ]
        in
        [
          row "Upsilon (Fig 1)" (fig1 (Some stab_time));
          row "Omega_n [18]" (Omega_n { stab_time });
        ])
      stab_times
  in
  {
    id = "e7";
    claim =
      "Corollaries 3-4 context: the strictly weaker Upsilon still solves \
       n-set-agreement; both Upsilon-based and Omega_n-based algorithms \
       terminate, with cost driven by the detector's stabilization time";
    table =
      {
        Report.title =
          Printf.sprintf "E7: Upsilon vs Omega_n set agreement (n+1=%d)"
            n_plus_1;
        headers =
          [ "stab time"; "algorithm"; "spec-ok"; "t(decide) lockstep"; "mean t(decide) random" ];
        rows;
      };
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ E8 *)

let e8_impossibility ?(jobs = 1) ?(horizons = [ 20_000; 80_000; 320_000 ]) () =
  let n_plus_1 = 3 in
  let results =
    pmap ~jobs horizons (fun horizon ->
        let run protocol =
          Harness.run { protocol; horizon; observers = [] }
            (lockstep_world ~n_plus_1 ~seed:1)
        in
        let async = run Async in
        let deciders =
          n_plus_1
          - Pid.Set.cardinal async.Harness.verdict.Agreement.Sa_spec.undecided_correct
        in
        let with_upsilon = run (fig1 (Some 0)) in
        (horizon, async, deciders, with_upsilon))
  in
  let ok = ref true in
  let rows =
    List.concat_map
      (fun (horizon, async, deciders, with_upsilon) ->
        if deciders <> 0 then ok := false;
        if not (Harness.ok with_upsilon) then ok := false;
        [
          [
            Report.cell_int horizon;
            "no detector (lockstep)";
            Report.cell_int deciders;
            Report.cell_int async.Harness.rounds;
            "starves";
          ];
          [
            Report.cell_int horizon;
            "Upsilon (same schedule)";
            Report.cell_int
              (n_plus_1
              - Pid.Set.cardinal
                  with_upsilon.Harness.verdict.Agreement.Sa_spec.undecided_correct);
            Report.cell_int with_upsilon.Harness.rounds;
            Printf.sprintf "decides by t=%d" with_upsilon.Harness.last_decision_time;
          ];
        ])
      results
  in
  {
    id = "e8";
    claim =
      "Impossibility backdrop [2,14,20]: without failure information the \
       Fig-1 skeleton admits a non-terminating schedule at every horizon, \
       while the same schedule with Upsilon decides - the impossibility the \
       paper circumvents";
    table =
      {
        Report.title =
          Printf.sprintf "E8: wait-free impossibility vs Upsilon (n+1=%d)"
            n_plus_1;
        headers = [ "horizon"; "configuration"; "deciders"; "rounds burned"; "behaviour" ];
        rows;
      };
    ok = !ok;
  }

(* ------------------------------------------------------------------ A1 *)

let a1_snapshot_ablation ?(jobs = 1) ?(sizes = [ 2; 4; 8 ]) () =
  let steps_for ~impl ~n_plus_1 =
    let snap = Snap.make ~impl ~name:"ab" ~size:n_plus_1 ~init:(fun _ -> 0) in
    let body pid () =
      for i = 1 to 10 do
        Snap.update snap ~me:pid i;
        ignore (Snap.scan snap)
      done
    in
    let result =
      Run.exec
        ~pattern:(Failure_pattern.no_failures ~n_plus_1)
        ~policy:(Policy.random (Rng.create 5))
        ~horizon:5_000_000
        ~procs:(fun pid -> [ body pid ])
        ()
    in
    result.steps
  in
  let rows =
    pmap ~jobs sizes (fun n_plus_1 ->
        (n_plus_1, steps_for ~impl:Snap.Registers ~n_plus_1,
         steps_for ~impl:Snap.Native ~n_plus_1))
    |> List.concat_map (fun (n_plus_1, reg, nat) ->
        let per_op total = float_of_int total /. float_of_int (n_plus_1 * 20) in
        [
          [
            Report.cell_int n_plus_1;
            "Afek et al. (registers)";
            Report.cell_int reg;
            Report.cell_float (per_op reg);
          ];
          [
            Report.cell_int n_plus_1;
            "native (one step/op)";
            Report.cell_int nat;
            Report.cell_float (per_op nat);
          ];
        ])
  in
  {
    id = "a1";
    claim =
      "Ablation: the register-built atomic snapshot [1] the paper's model \
       requires costs O(n) steps per operation vs 1 for a native object - \
       the protocols pay this faithfully";
    table =
      {
        Report.title = "A1: snapshot implementation ablation (10 update+scan pairs per process)";
        headers = [ "n+1"; "implementation"; "total steps"; "steps/op" ];
        rows;
      };
    ok = true;
  }

(* ------------------------------------------------------------------ A2 *)

let a2_seeds = 12
let a2_escape_ablation ?(jobs = 1) ?(seeds = a2_seeds) () =
  let open Agreement in
  let n_plus_1 = 3 in
  let configs =
    [
      ("all escapes on", Upsilon_sa.all_escapes, true);
      ( "no Stable[r] watch",
        { Upsilon_sa.all_escapes with watch_stable = false },
        true );
      ( "no D[r] adoption",
        { Upsilon_sa.all_escapes with watch_round_d = false },
        true );
      ("no D watch", { Upsilon_sa.all_escapes with watch_final = false }, true);
      ( "no D[r] and no D",
        {
          Upsilon_sa.all_escapes with
          watch_round_d = false;
          watch_final = false;
        },
        false );
    ]
  in
  let ok = ref true in
  let rows =
    List.map
      (fun (label, escapes, expect_termination) ->
        (* The adversarial setup where the escapes matter: failure-free,
           Upsilon pinned on a strict subset, lockstep scheduling. *)
        let terminated =
          pseeds ~jobs seeds (fun i ->
              let pattern = Failure_pattern.no_failures ~n_plus_1 in
              let world =
                {
                  Harness.pattern;
                  policy =
                    (if i mod 2 = 0 then Policy.round_robin ()
                     else Policy.random (Rng.create (900 + i)));
                  world_rng = Rng.create (800 + i);
                }
              in
              let fig1 = Harness.Fig1 { stab_time = Some 0; escapes } in
              let m =
                Harness.run
                  { protocol = fig1; horizon = 400_000; observers = [] }
                  world
              in
              m.Harness.verdict.Sa_spec.termination)
        in
        let rate = pass_rate Fun.id terminated in
        let as_expected =
          if expect_termination then rate = 1.0 else rate < 1.0
        in
        if not as_expected then ok := false;
        [
          label;
          Report.cell_int seeds;
          Report.cell_pct rate;
          (if expect_termination then "terminates" else "starves (expected)");
        ])
      configs
  in
  {
    id = "a2";
    claim =
      "Ablation: Fig 1's D[r]/D escape reads are jointly load-bearing for \
       Termination (removing both lets gladiators starve); individually \
       they are redundant escape paths";
    table =
      {
        Report.title =
          Printf.sprintf "A2: Fig-1 escape-condition ablation (n+1=%d)"
            n_plus_1;
        headers = [ "configuration"; "runs"; "termination"; "verdict" ];
        rows;
      };
    ok = !ok;
  }

(* ------------------------------------------------------------------ E9 *)

let e9_seeds = 20
let e9_booster_consensus ?(jobs = 1) ?(seeds = e9_seeds) ?(sizes = [ 2; 3; 4; 5 ]) () =
  let open Agreement in
  let open Detectors in
  let all_ok = ref true in
  let rows =
    List.map
      (fun n_plus_1 ->
        let runs =
          pseeds ~jobs seeds (fun i ->
              let world =
                rng_world ~seed:((n_plus_1 * 613) + i) ~n_plus_1
                  ~max_faulty:(n_plus_1 - 1) ~latest:300
              in
              let omega_n =
                Detector.source
                  (Omega_k.make ~rng:world.world_rng ~pattern:world.pattern
                     ~k:(n_plus_1 - 1) ())
              in
              let proto =
                Booster_consensus.create ~name:"boost" ~n_plus_1 ~omega_n
              in
              let m =
                Harness.run_agreement ~label:"booster" ~k:1 ~base:700
                  ~horizon:Harness.default_horizon
                  ~replay:(Some (Harness.History omega_n))
                  ~fibers:(fun ~me ~input ->
                    [ Booster_consensus.proposer proto ~me ~input ])
                  ~decisions:(fun () -> Booster_consensus.decisions proto)
                  ~rounds:(fun () ->
                    List.fold_left
                      (fun acc (_, r) -> max acc r)
                      0
                      (Booster_consensus.decision_rounds proto))
                  world
              in
              ( Harness.ok m,
                Booster_consensus.max_ports_used proto,
                Booster_consensus.objects_allocated proto,
                m.last_decision_time ))
        in
        let oks = List.map (fun (o, _, _, _) -> o) runs in
        let port_ok =
          List.for_all (fun (_, ports, _, _) -> ports <= n_plus_1 - 1) runs
        in
        if not (List.for_all Fun.id oks && port_ok) then all_ok := false;
        [
          Report.cell_int n_plus_1;
          Report.cell_int seeds;
          Report.cell_pct (pass_rate Fun.id oks);
          Report.cell_int
            (List.fold_left (fun acc (_, p, _, _) -> max acc p) 0 runs);
          Report.cell_float
            (Stats.mean_int (List.map (fun (_, _, objs, _) -> objs) runs));
          Report.cell_float
            (Stats.mean_int (List.map (fun (_, _, _, t) -> t) runs));
        ])
      sizes
  in
  {
    id = "e9";
    claim =
      "Corollary 4 context [13,21]: Omega_n boosts n-process consensus \
       objects to n+1-process consensus (while Theorem 1 / E3 shows the \
       strictly weaker Upsilon cannot); committee-indexed objects never \
       exceed their n ports";
    table =
      {
        Report.title = "E9: Omega_n-boosted consensus from n-consensus objects";
        headers =
          [ "n+1"; "runs"; "spec-ok"; "max ports used"; "mean objects"; "mean t(decide)" ];
        rows;
      };
    ok = !all_ok;
  }

(* ----------------------------------------------------------------- E10 *)

let e10_seeds = 10
let e10_abd_emulation ?(jobs = 1) ?(seeds = e10_seeds) ?(sizes = [ 3; 5; 7 ]) () =
  let all_ok = ref true in
  let rows =
    List.map
      (fun n_plus_1 ->
        let minority = (n_plus_1 - 1) / 2 in
        let per_client = 2 in
        let results =
          pseeds ~jobs seeds (fun i ->
              let { Harness.pattern; policy; _ } =
                rng_world ~seed:((n_plus_1 * 811) + i) ~n_plus_1
                  ~max_faulty:minority ~latest:400
              in
              let abd =
                Memory.Abd.create ~name:"e10" ~n_plus_1 ~init:0
              in
              let body me () =
                for j = 1 to per_client do
                  Memory.Abd.write abd ~me ~key:"r" ((100 * (me + 1)) + j);
                  ignore (Memory.Abd.read abd ~me ~key:"r")
                done
              in
              ignore
                (Run.exec ~pattern ~policy ~horizon:800_000
                   ~procs:(fun pid ->
                     [ Memory.Abd.server abd ~me:pid; body pid ])
                   ());
              let correct_done =
                Pid.Set.for_all
                  (fun p ->
                    List.length
                      (List.filter
                         (fun o -> Pid.equal o.Memory.Abd.pid p)
                         (Memory.Abd.oplog abd))
                    = 2 * per_client)
                  (Failure_pattern.correct pattern)
              in
              let atomic = Memory.Abd.check_atomicity abd = Ok () in
              let latency =
                List.map
                  (fun o -> o.Memory.Abd.responded - o.Memory.Abd.invoked)
                  (Memory.Abd.oplog abd)
              in
              (atomic, correct_done, latency))
        in
        require all_ok (fun (atomic, live, _) -> atomic && live) results;
        let latencies =
          List.concat_map (fun (_, _, l) -> l) results
        in
        [
          Report.cell_int n_plus_1;
          Report.cell_int minority;
          Report.cell_int seeds;
          Report.cell_pct (pass_rate (fun (a, _, _) -> a) results);
          Report.cell_pct (pass_rate (fun (_, d, _) -> d) results);
          Report.cell_float (Stats.mean_int latencies);
        ])
      sizes
  in
  {
    id = "e10";
    claim =
      "Substrate bridge (Attiya-Bar-Noy-Dolev): the atomic registers the \
       paper assumes are emulable over asynchronous messages with a \
       correct majority - every op log linearizes, correct clients always \
       terminate";
    table =
      {
        Report.title =
          "E10: ABD register emulation over message passing (2 write+read \
           pairs per client)";
        headers =
          [ "n+1"; "max crashes"; "runs"; "atomic"; "live"; "mean op latency" ];
        rows;
      };
    ok = !all_ok;
  }

(* ----------------------------------------------------------------- E11 *)

let e11_seeds = 6
let e11_msg_consensus ?(jobs = 1) ?(seeds = e11_seeds) ?(sizes = [ 3; 5 ])
    ?(detectors = Harness.Oracle) () =
  let all_ok = ref true in
  (* One row per size: Omega the oracle (its world drawn from one
     generator), or the live min-unsuspected leader of a heartbeat ◇P,
     whose run quiesces once every correct process has decided (within
     a few thousand steps); its horizon only bounds a run that fails
     to. *)
  let row detectors n_plus_1 =
    let minority = (n_plus_1 - 1) / 2 in
    let runs =
      pseeds ~jobs seeds (fun i ->
          let seed = (n_plus_1 * 907) + i in
          let horizon, world =
            match detectors with
            | Harness.Oracle ->
                ( 3_000_000,
                  rng_world ~seed ~n_plus_1 ~max_faulty:minority ~latest:300 )
            | Harness.Heartbeat _ ->
                ( 120_000,
                  Harness.random_world ~seed ~n_plus_1 ~max_faulty:minority
                    ~latest:300 () )
          in
          let m, memory = Harness.run_msg_consensus ~horizon ~detectors world in
          (Harness.ok m, memory = Ok (), m.Harness.last_decision_time))
    in
    require all_ok (fun (o, a, _) -> o && a) runs;
    [
      (match detectors with
      | Harness.Oracle -> Report.cell_int n_plus_1
      | Harness.Heartbeat _ -> Printf.sprintf "%d (hb Omega)" n_plus_1);
      Report.cell_int minority;
      Report.cell_int seeds;
      Report.cell_pct (pass_rate (fun (o, _, _) -> o) runs);
      Report.cell_pct (pass_rate (fun (_, a, _) -> a) runs);
      Report.cell_float (Stats.mean_int (List.map (fun (_, _, t) -> t) runs));
    ]
  in
  let gated_rows = if detectors = Harness.Oracle then [] else List.map (row detectors) sizes in
  let rows = List.map (row Harness.Oracle) sizes in
  {
    id = "e11";
    claim =
      "End-to-end lowering: Omega-based consensus runs unchanged over \
       ABD-emulated registers in a message-passing system with minority \
       crashes - agreement/validity/termination hold and the emulated \
       memory linearizes in every run";
    table =
      {
        Report.title = "E11: message-passing consensus (Omega + commit-adopt over ABD)";
        headers = [ "n+1"; "max crashes"; "runs"; "spec-ok"; "memory atomic"; "mean t(decide)" ];
        rows = rows @ gated_rows;
      };
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ A3 *)

let a3_seeds = 12
let a3_fig2_snapshot_cost ?(jobs = 1) ?(seeds = a3_seeds) () =
  let n_plus_1 = 4 in
  let f = 2 in
  let all_ok = ref true in
  (* The snapshot path of Fig 2 (lines 15-30) only runs when every
     correct process is a gladiator: pin Υᶠ to Π over a pattern with one
     crash, under lock-step scheduling, so A[r][k] is on the critical
     path. The "random" scenario is the average case, where round-1
     converge usually decides first. *)
  let fig2 snapshot ~pinned = Harness.setup (Fig2 { f; snapshot; pinned }) in
  let gated_run impl seed =
    Harness.run
      (fig2 impl ~pinned:true)
      {
        Harness.pattern =
          Failure_pattern.make ~n_plus_1 ~crashes:[ (3, 60 + seed) ];
        policy = Policy.round_robin ();
        world_rng = Rng.create (4100 + seed);
      }
  in
  let rows =
    List.concat_map
      (fun impl ->
        let random_runs =
          pseeds ~jobs seeds (fun i ->
              Harness.run
                (fig2 impl ~pinned:false)
                (Harness.random_world ~seed:(4000 + i) ~n_plus_1 ~max_faulty:f
                   ()))
        in
        let gated = pseeds ~jobs seeds (gated_run impl) in
        require all_ok Harness.ok (gated @ random_runs);
        let row scenario runs =
          [
            Memory.Snap.impl_name impl;
            scenario;
            Report.cell_int seeds;
            Report.cell_pct (pass_rate Harness.ok runs);
            Report.cell_float
              (Stats.mean_int (List.map (fun m -> m.Harness.total_steps) runs));
          ]
        in
        [
          row "gladiator-gated (lockstep)" gated;
          row "random worlds" random_runs;
        ])
      [ Memory.Snap.Registers; Memory.Snap.Native ]
  in
  {
    id = "a3";
    claim =
      "Ablation: Fig 2 run on the paper-faithful register-built snapshots \
       vs native snapshot objects - correctness is identical, the faithful \
       construction pays the Theta(n) per-operation step cost inside the \
       protocol";
    table =
      {
        Report.title =
          Printf.sprintf "A3: Fig-2 snapshot-substrate ablation (n+1=%d, f=%d)"
            n_plus_1 f;
        headers = [ "snapshot impl"; "scenario"; "runs"; "spec-ok"; "mean steps" ];
        rows;
      };
    ok = !all_ok;
  }

(* ------------------------------------------------- c1: model checking *)

(* A check row holds when it finds a violation exactly when one is
   expected, and every violation it finds is shrunk. *)
let check_as_expected (o : Harness.check_outcome) ~expect_violation =
  match o.violation with
  | None -> not expect_violation
  | Some v -> expect_violation && v.shrunk

let c1_model_checking ?(jobs = 1) ?(depth = 6) ?(mutant_depth = 12) () =
  let all_ok = ref true in
  let row ?mutant ?depth:d ?procs obj ~expect_violation =
    let depth = Option.value d ~default:depth in
    let o = Harness.check_exhaustive ~jobs ?procs ?mutant ~depth obj in
    if not (check_as_expected o ~expect_violation) then all_ok := false;
    [
      Check.Scenario.to_string obj;
      (match mutant with None -> "-" | Some m -> Mutant.to_string m);
      Report.cell_int o.Harness.check_procs;
      Report.cell_int o.Harness.check_depth;
      Report.cell_int o.Harness.patterns_swept;
      Report.cell_int o.Harness.executions;
      Report.cell_int o.Harness.naive_bound;
      (match o.Harness.violation with
      | None -> "none"
      | Some v ->
          Printf.sprintf "caught (prefix %d, crashes %d)"
            (List.length v.Harness.cex_prefix)
            (Pid.Set.cardinal (Failure_pattern.faulty v.Harness.cex_pattern)));
    ]
  in
  let rows =
    [
      row Check.Scenario.Register ~expect_violation:false;
      row Check.Scenario.Snapshot ~expect_violation:false;
      row Check.Scenario.Abd ~procs:3 ~expect_violation:false;
      row Check.Scenario.Commit_adopt ~expect_violation:false;
      row Check.Scenario.Abd ~procs:3 ~mutant:Mutant.Abd_skip_write_back
        ~expect_violation:true;
      row Check.Scenario.Snapshot ~procs:3 ~depth:mutant_depth
        ~mutant:Mutant.Snapshot_single_collect ~expect_violation:true;
      row Check.Scenario.Commit_adopt ~mutant:Mutant.Converge_drop_phase2
        ~expect_violation:true;
    ]
  in
  {
    id = "c1";
    claim =
      "Model checking: DPOR exploration with linearizability/agreement \
       checking passes every clean scenario and catches all three planted \
       mutants with a shrunk, replayable counterexample";
    table =
      {
        Report.title = "C1: DPOR model checking - clean objects vs mutants";
        headers =
          [
            "object";
            "mutant";
            "procs";
            "depth";
            "patterns";
            "execs";
            "naive bound";
            "violation";
          ];
        rows;
      };
    ok = !all_ok;
  }

(* ------------------------------------- d1: implemented-detector grid *)

(* The link families the heartbeat detectors are validated against.
   Seeds differ per family so no two share message fates. *)
let hb_config_grid =
  [
    ("reliable", { Link.gst = 0; delta = 1; pre_delay = 0; loss_pct = 0; link_seed = 1 });
    ("lossy", { Link.gst = 40; delta = 2; pre_delay = 0; loss_pct = 60; link_seed = 2 });
    ("delayed", { Link.gst = 40; delta = 3; pre_delay = 12; loss_pct = 0; link_seed = 3 });
    ("adversarial", { Link.gst = 80; delta = 4; pre_delay = 10; loss_pct = 80; link_seed = 4 });
  ]

let d1_seeds = 5
let d1_hb_conformance ?(jobs = 1) ?(seeds = d1_seeds) ?(spans = Obs.Span.null) () =
  let all_ok = ref true in
  let rows =
    List.concat_map
      (fun (label, net) ->
        Obs.Span.with_ spans ("net.hb." ^ label) (fun () ->
            List.map
              (fun (mode_label, mode) ->
                let runs =
                  pseeds ~jobs seeds (fun i ->
                      let world =
                        Harness.random_world
                          ~seed:((Hashtbl.hash label * 53) + (31 * i))
                          ~n_plus_1:3 ~max_faulty:1 ~latest:60 ()
                      in
                      Harness.run_hb_detector ~mode ~net world)
                in
                require all_ok (fun (v, _) -> Result.is_ok v) runs;
                [
                  label;
                  mode_label;
                  Report.cell_int net.Link.gst;
                  Report.cell_int net.Link.loss_pct;
                  Report.cell_int seeds;
                  Report.cell_pct
                    (pass_rate (fun (v, _) -> Result.is_ok v) runs);
                  Report.cell_float (Stats.mean_int (List.map snd runs));
                ])
              [ ("evP", `Ev_perfect); ("evS", `Ev_strong) ]))
      hb_config_grid
  in
  {
    id = "d1";
    claim =
      "Implemented detectors: increasing-timeout heartbeats over partially \
       synchronous links satisfy the \xE2\x97\x87P / \xE2\x97\x87S specs (validated on the \
       reconstructed history, plus link contract and crash isolation) on \
       every sampled GST/delay/loss family";
    table =
      {
        Report.title =
          "D1: heartbeat \xE2\x97\x87P/\xE2\x97\x87S conformance across link families (n+1=3)";
        headers =
          [ "links"; "mode"; "gst"; "loss%"; "runs"; "spec-ok"; "mean t(stabilize)" ];
        rows;
      };
    ok = !all_ok;
  }

(* ------------------------------- d2: oracle vs implemented detectors *)

let d2_seeds = 3
let d2_hb_vs_oracle ?(jobs = 1) ?(seeds = d2_seeds) ?(spans = Obs.Span.null) () =
  let net = { Link.gst = 60; delta = 2; pre_delay = 8; loss_pct = 40; link_seed = 6 } in
  let all_ok = ref true in
  (* each run is (oracle_ok, implemented_ok, implemented_t): one leg
     run on the same world with each detector choice *)
  let both run =
    let oracle, _ = run Harness.Oracle in
    let implemented, t = run (Harness.Heartbeat net) in
    (oracle, implemented, t)
  in
  let agreement_row title runs =
    require all_ok (fun (o, i, _) -> o && i && o = i) runs;
    [
      title;
      Report.cell_int seeds;
      Report.cell_pct (pass_rate (fun (o, _, _) -> o) runs);
      Report.cell_pct (pass_rate (fun (_, i, _) -> i) runs);
      Report.cell_pct (pass_rate (fun (o, i, _) -> o = i) runs);
      Report.cell_float (Stats.mean_int (List.map (fun (_, _, s) -> s) runs));
    ]
  in
  let extraction =
    Obs.Span.with_ spans "net.d2.extraction" (fun () ->
        pseeds ~jobs seeds (fun i ->
            both (fun detectors ->
                let verdict, stab =
                  Harness.run_extraction_of ~f:2 ~source:(`Ev_perfect detectors)
                    (Harness.random_world ~seed:(4000 + (17 * i)) ~n_plus_1:4
                       ~max_faulty:2 ~latest:150 ())
                in
                (Result.is_ok verdict, stab))))
  in
  let consensus =
    Obs.Span.with_ spans "net.d2.consensus" (fun () ->
        pseeds ~jobs seeds (fun i ->
            both (fun detectors ->
                (* both runs quiesce once every correct process has
                   decided (within ~5k steps, GST is 60); the horizon
                   only bounds a run that fails to *)
                let m, memory =
                  Harness.run_msg_consensus ~horizon:60_000 ~detectors
                    (Harness.random_world ~seed:(6000 + (23 * i)) ~n_plus_1:3
                       ~max_faulty:1 ~latest:100 ())
                in
                (Harness.ok m && memory = Ok (), m.Harness.last_decision_time))))
  in
  {
    id = "d2";
    claim =
      "Substitutability: the paper experiments reach the same verdicts \
       when the oracle detector is replaced by its heartbeat \
       implementation - Fig-3 extraction from implemented \xE2\x97\x87P, and \
       message-passing consensus from implemented \xCE\xA9 (min unsuspected of \
       \xE2\x97\x87P), with recorded queries replaying exactly against the \
       reconstructed history";
    table =
      {
        Report.title =
          Printf.sprintf "D2: oracle vs implemented detectors (links %s)"
            (Link.config_to_string net);
        headers =
          [
            "experiment";
            "runs";
            "oracle ok";
            "implemented ok";
            "verdicts agree";
            "mean t (impl)";
          ];
        rows =
          [
            agreement_row "Fig-3 extraction (\xE2\x97\x87P source)" extraction;
            agreement_row "msg consensus (\xCE\xA9 source)" consensus;
          ];
      };
    ok = !all_ok;
  }

(* ------------------------- d3: partial-synchrony model checking rows *)

let d3_hb_model_checking ?(jobs = 1) ?(depth = 5) ?(spans = Obs.Span.null) () =
  let all_ok = ref true in
  let row ?mutant obj ~expect_violation =
    let o =
      Obs.Span.with_ spans
        (Printf.sprintf "net.d3.%s"
           (match mutant with
           | None -> "clean"
           | Some m -> Mutant.to_string m))
        (fun () ->
          Harness.check_exhaustive ~jobs ~procs:2 ~depth ~horizon:500 ?mutant
            obj)
    in
    if not (check_as_expected o ~expect_violation) then all_ok := false;
    [
      Check.Scenario.to_string obj;
      (match mutant with None -> "-" | Some m -> Mutant.to_string m);
      Report.cell_int o.Harness.check_depth;
      Report.cell_int o.Harness.patterns_swept;
      Report.cell_int o.Harness.executions;
      (match o.Harness.violation with
      | None -> "none"
      | Some v ->
          Printf.sprintf "caught (prefix %d)" (List.length v.Harness.cex_prefix));
    ]
  in
  let hb = Check.Scenario.Hb_detector Check.Scenario.default_chaos in
  let chaos = Check.Scenario.Link_chaos Check.Scenario.default_chaos in
  let rows =
    [
      row hb ~expect_violation:false;
      row chaos ~expect_violation:false;
      row hb ~mutant:Mutant.Hb_timeout_never_increased
        ~expect_violation:true;
      row hb ~mutant:Mutant.Hb_suspected_not_restored
        ~expect_violation:true;
    ]
  in
  {
    id = "d3";
    claim =
      "Partial synchrony under exploration: no pre-GST delay/loss/ordering \
       within the DPOR window can break the link contract, crash isolation, \
       or the implemented detectors' specs - while both planted heartbeat \
       mutants are caught with a shrunk, replayable counterexample";
    table =
      {
        Report.title =
          "D3: DPOR over partially synchronous links - clean vs heartbeat mutants";
        headers =
          [ "object"; "mutant"; "depth"; "patterns"; "execs"; "violation" ];
        rows;
      };
    ok = !all_ok;
  }

(* --------------------------------------------------------------- index *)

type config = { scale : int; jobs : int; spans : Obs.Span.scope; detectors : Harness.detectors }

type entry = { id : string; description : string; run : config -> outcome }

let registry =
  let e id description run = { id; description; run } in
  [
    e "e1" "Fig 1 / Theorem 2: Upsilon-based n-set-agreement" (fun c ->
        e1_fig1_set_agreement ~jobs:c.jobs ~seeds:(e1_seeds * c.scale) ());
    e "e2" "Fig 2 / Theorem 6: Upsilon^f-based f-resilient f-set-agreement" (fun c ->
        e2_fig2_f_resilient ~jobs:c.jobs ~seeds:(e2_seeds * c.scale) ());
    e "e3" "Theorem 1 adversary: Upsilon cannot be turned into Omega_n" (fun c ->
        e3_theorem1_adversary ~jobs:c.jobs ~max_phases:(e3_phases * c.scale) ());
    e "e4" "Theorem 5 adversary: Upsilon^f cannot be turned into Omega^f" (fun c ->
        e4_theorem5_adversary ~jobs:c.jobs ~max_phases:(e4_phases * c.scale) ());
    e "e5" "Fig 3 / Theorem 10: extracting Upsilon^f from stable detectors" (fun c ->
        e5_fig3_extraction ~jobs:c.jobs ~seeds:(e5_seeds * c.scale) ~detectors:c.detectors ());
    e "e6" "Section 4 / 5.3 pairwise detector reductions" (fun c ->
        e6_pairwise_reductions ~jobs:c.jobs ~seeds:(e6_seeds * c.scale) ());
    e "e7" "Corollaries 3-4: Upsilon vs Omega_n set agreement cost" (fun c ->
        e7_upsilon_vs_omega_n ~jobs:c.jobs ~seeds:(e7_seeds * c.scale) ());
    e "e8" "Impossibility backdrop: detector-free starvation schedule" (fun c ->
        e8_impossibility ~jobs:c.jobs ());
    e "e9" "Corollary 4: Omega_n-boosted consensus from n-consensus objects" (fun c ->
        e9_booster_consensus ~jobs:c.jobs ~seeds:(e9_seeds * c.scale) ());
    e "e10" "ABD: atomic registers over message passing (substrate bridge)" (fun c ->
        e10_abd_emulation ~jobs:c.jobs ~seeds:(e10_seeds * c.scale) ());
    e "e11" "Message-passing consensus: Omega + commit-adopt over ABD" (fun c ->
        e11_msg_consensus ~jobs:c.jobs ~seeds:(e11_seeds * c.scale) ~detectors:c.detectors ());
    e "a1" "Ablation: register-built vs native snapshot cost" (fun c ->
        a1_snapshot_ablation ~jobs:c.jobs ());
    e "a2" "Ablation: Fig 1 escape conditions" (fun c ->
        a2_escape_ablation ~jobs:c.jobs ~seeds:(a2_seeds * c.scale) ());
    e "a3" "Ablation: Fig 2 on register-built vs native snapshots" (fun c ->
        a3_fig2_snapshot_cost ~jobs:c.jobs ~seeds:(a3_seeds * c.scale) ());
    e "c1" "Model checking: DPOR + linearizability on clean and mutated objects" (fun c ->
        c1_model_checking ~jobs:c.jobs ());
    e "d1" "Implemented detectors: heartbeat EvP/EvS conformance across link families" (fun c ->
        d1_hb_conformance ~jobs:c.jobs ~seeds:(d1_seeds * c.scale) ~spans:c.spans ());
    e "d2" "Substitutability: oracle vs implemented detectors on paper experiments" (fun c ->
        d2_hb_vs_oracle ~jobs:c.jobs ~seeds:(d2_seeds * c.scale) ~spans:c.spans ());
    e "d3" "Model checking partial synchrony: clean links and heartbeat mutants" (fun c ->
        d3_hb_model_checking ~jobs:c.jobs ~spans:c.spans ());
  ]

let find id = List.find_opt (fun e -> e.id = String.lowercase_ascii id) registry

let pp ppf (t : outcome) =
  Format.fprintf ppf "[%s] %s@.claim: %s@.@.%a@." t.id
    (if t.ok then "CLAIM HOLDS" else "CLAIM FAILED")
    t.claim Report.render t.table
