open Kernel
open Memory
open Reduction

type outcome = { id : string; claim : string; table : Report.table; ok : bool }

(* A row of a table: [units] independent units of work (seeds, sizes,
   candidates, horizons or checks), and a fold from their results, in
   unit order, to the row's table lines and whether the claim held on
   them. *)
type 'u row = { units : int; unit : int -> 'u; fold : 'u list -> string list list * bool }

(* An experiment: its claim, its table's frame, and its rows, whose
   units all return ['u]. *)
type 'u experiment =
  { id : string; claim : string; title : string; headers : string list; rows : 'u row list }

exception Deadline_expired

(* Split [xs] after its first [n] elements. *)
let rec split n = function
  | x :: tl when n > 0 -> let a, b = split (n - 1) tl in (x :: a, b)
  | xs -> ([], xs)

(* The one driver. Every unit of every row goes through one pool call,
   which polls [deadline] before each unit and stops at the first that
   finds it expired. Results come back in unit order whatever [jobs]
   is, so the rows fold out identically at -j 1 and -j N; unit bodies
   must be self-contained (build their own world, mutate nothing
   shared). *)
let run ?(jobs = 1) ?(spans = Obs.Span.null) ?(deadline = Fun.const false)
    (x : _ experiment) =
  Obs.Span.with_ spans ("exp." ^ x.id) @@ fun () ->
  let units =
    Array.of_list
      (List.concat_map (fun r -> List.init r.units (fun i () -> r.unit i)) x.rows)
  in
  let results =
    Exec.Pool.map_until (Exec.Pool.create ~jobs ()) ~stop:Option.is_none
      ~f:(fun k -> if deadline () then None else Some (units.(k) ()))
      (Array.length units)
    |> List.filter_map Fun.id
  in
  if List.length results < Array.length units then raise Deadline_expired;
  let rec fold rows results =
    match rows with
    | [] -> ([], true)
    | r :: rows ->
        let mine, rest = split r.units results in
        let lines, pass = r.fold mine in
        let more, ok = fold rows rest in
        (lines @ more, pass && ok)
  in
  let rows, ok = fold x.rows results in
  { id = x.id; claim = x.claim; table = { title = x.title; headers = x.headers; rows }; ok }

(* A row of one line. *)
let row units unit fold =
  { units; unit; fold = (fun us -> let line, ok = fold us in ([ line ], ok)) }

(* A row of one unit that computes its own line. *)
let one line = row 1 (fun _ -> line ()) List.hd

(* The share of [xs] that pass [ok], as a percentage cell. *)
let pct ok xs =
  Report.cell_pct (Stats.mean (List.map (fun x -> if ok x then 1.0 else 0.0) xs))

(* The mean of [f] over [xs], as a cell. *)
let mean f xs = Report.cell_float (Stats.mean_int (List.map f xs))

let max_distinct runs =
  List.fold_left
    (fun acc m -> max acc m.Harness.verdict.Agreement.Sa_spec.distinct_decided)
    0 runs

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
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  { Harness.pattern; policy = Policy.round_robin (); world_rng = Rng.create seed }

(* Fig 1 with all its escape reads, as every experiment but A2 runs it. *)
let fig1 stab_time =
  Harness.Fig1 { stab_time; escapes = Agreement.Upsilon_sa.all_escapes }

(* ------------------------------------------------------------------ E1 *)

let e1_seeds = 25
let e1 ?(seeds = e1_seeds) ?(sizes = [ 2; 3; 4; 5; 6 ]) () =
  {
    id = "e1";
    claim =
      "Fig 1 / Theorem 2: Upsilon + registers solve n-set-agreement among \
       n+1 processes, tolerating n crashes (termination, <= n values, \
       validity on every run)";
    title = "E1: Fig-1 Upsilon-based n-set-agreement";
    headers =
      [ "n+1"; "k=n"; "runs"; "spec-ok"; "mean t(decide)"; "p95 t(decide)"; "mean rounds"; "max distinct" ];
    rows =
      List.map
        (fun n_plus_1 ->
          row seeds
            (fun i ->
              Harness.run (Harness.setup (fig1 None))
                (Harness.random_world ~seed:((n_plus_1 * 1000) + i) ~n_plus_1
                   ~max_faulty:(n_plus_1 - 1) ()))
            (fun runs ->
              let decided = List.map (fun m -> m.Harness.last_decision_time) runs in
              ( [ Report.cell_int n_plus_1; Report.cell_int (n_plus_1 - 1);
                  Report.cell_int seeds; pct Harness.ok runs;
                  Report.cell_float (Stats.mean_int decided);
                  Report.cell_float (Stats.percentile_or ~default:0.0 0.95 decided);
                  mean (fun m -> m.Harness.rounds) runs; Report.cell_int (max_distinct runs) ],
                List.for_all Harness.ok runs )))
        sizes;
  }

(* ------------------------------------------------------------------ E2 *)

let e2_seeds = 15
let e2 ?(seeds = e2_seeds) ?(sizes = [ 3; 4; 5; 6 ]) () =
  {
    id = "e2";
    claim =
      "Fig 2 / Theorem 6: Upsilon^f + registers solve f-resilient \
       f-set-agreement for every 1 <= f <= n";
    title = "E2: Fig-2 Upsilon^f-based f-set-agreement";
    headers = [ "n+1"; "f"; "runs"; "spec-ok"; "mean t(last decide)"; "max distinct" ];
    rows =
      List.concat_map
        (fun n_plus_1 ->
          List.init (n_plus_1 - 1) (fun fm1 ->
              let f = fm1 + 1 in
              row seeds
                (fun i ->
                  Harness.run
                    (Harness.setup (Fig2 { f; snapshot = Snap.Registers; pinned = false }))
                    (Harness.random_world
                       ~seed:((n_plus_1 * 7919) + (f * 131) + i)
                       ~n_plus_1 ~max_faulty:f ()))
                (fun runs ->
                  ( [ Report.cell_int n_plus_1; Report.cell_int f; Report.cell_int seeds;
                      pct Harness.ok runs; mean (fun m -> m.Harness.last_decision_time) runs;
                      Report.cell_int (max_distinct runs) ],
                    List.for_all Harness.ok runs ))))
        sizes;
  }

(* ------------------------------------------------------------- E3 / E4 *)

(* Both verdict shapes are defeats, so the claim holds whenever every
   run produces a verdict, which the type guarantees. *)
let adversary ~id ~claim ~title ~n_plus_1 ~f ~max_phases =
  {
    id;
    claim;
    title = Printf.sprintf "%s (n+1=%d, f=%d, %d phases max)" title n_plus_1 f max_phases;
    headers = [ "candidate extractor"; "defeat mode"; "detail" ];
    rows =
      List.map
        (fun cand ->
          one (fun () ->
              let defeat, detail =
                match Adversary.run cand ~n_plus_1 ~f ~max_phases ~phase_budget:8_000 with
                | Adversary.Never_stabilizes { flips; _ } ->
                    ("never stabilizes", Printf.sprintf "%d flips forced" flips)
                | Adversary.Stuck { on; phase; _ } ->
                    ( "stuck",
                      Format.asprintf "on %a at phase %d (all-crash extension kills it)"
                        Pid.Set.pp on phase )
              in
              ([ cand.Adversary.cand_name; defeat; detail ], true)))
        Adversary.Candidates.all;
  }

let e3_phases = 25
let e3 ?(max_phases = e3_phases) () =
  adversary ~id:"e3"
    ~claim:
      "Theorem 1: Upsilon is strictly weaker than Omega_n (n >= 2) - the \
       solo-schedule adversary defeats every candidate extractor"
    ~title:"E3: Theorem-1 adversary vs Upsilon->Omega_n candidates" ~n_plus_1:3
    ~f:2 ~max_phases

let e4_phases = 25
let e4 ?(max_phases = e4_phases) () =
  adversary ~id:"e4"
    ~claim:
      "Theorem 5: Upsilon^f is strictly weaker than Omega^f (2 <= f <= n) - \
       same adversary in the f-resilient setting"
    ~title:"E4: Theorem-5 adversary vs Upsilon^f->Omega^f candidates"
    ~n_plus_1:5 ~f:3 ~max_phases

(* ------------------------------------------------------------------ E5 *)

let e5_seeds = 8
let e5 ?(seeds = e5_seeds) ?(detectors = Harness.Oracle) () =
  let n_plus_1 = 4 and f = 2 in
  let sources =
    [ ("Omega", `Omega); ("Omega_k (k=2)", `Omega_k 2);
      ("eventually-perfect", `Ev_perfect Harness.Oracle); ("perfect", `Perfect);
      ("Upsilon^f itself", `Upsilon_f); ("vitality(p1)", `Vitality 0);
      ("Omega, w(sigma)=3", `Omega_batched 3) ]
    @
    (* Gated: the implemented (heartbeat) ◇P as one more stable source —
       the only row whose detector is computed inside the run. *)
    if detectors = Harness.Oracle then []
    else [ ("hb ev-perfect (implemented)", `Ev_perfect detectors) ]
  in
  {
    id = "e5";
    claim =
      "Fig 3 / Theorem 10: every stable f-non-trivial detector can be \
       transformed into Upsilon^f (extracted output eventually stable, \
       common, of size >= n+1-f, and never the correct set)";
    title = Printf.sprintf "E5: Fig-3 extraction of Upsilon^f (n+1=%d, f=%d)" n_plus_1 f;
    headers = [ "source detector"; "runs"; "spec-ok"; "mean t(stabilize)" ];
    rows =
      List.map
        (fun (label, source) ->
          row seeds
            (fun i ->
              Harness.run_extraction_of ~f ~source
                (Harness.random_world
                   ~seed:((Hashtbl.hash label * 31) + i)
                   ~n_plus_1 ~max_faulty:f ~latest:150 ()))
            (fun results ->
              let ok (v, _) = Result.is_ok v in
              ( [ label; Report.cell_int seeds; pct ok results; mean snd results ],
                List.for_all ok results )))
        sources;
  }

(* ------------------------------------------------------------------ E6 *)

let e6_seeds = 20
let e6 ?(seeds = e6_seeds) () =
  let open Detectors in
  let reduction label check =
    row seeds check (fun oks ->
        ([ label; Report.cell_int seeds; pct Fun.id oks ], List.for_all Fun.id oks))
  in
  (* Unit [i]'s generator, seeded [i + base], and a pattern drawn from
     it over 3 to 5 processes, all but one of which may crash. *)
  let drawn ~base ~latest i =
    let rng = Rng.create (i + base) in
    let n_plus_1 = 3 + (i mod 3) in
    (rng, n_plus_1, Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1) ~latest)
  in
  {
    id = "e6";
    claim =
      "Section 4 / 5.3: the pairwise reductions between Omega-family \
       detectors and Upsilon-family detectors all preserve the target specs";
    title = "E6: pairwise detector reductions";
    headers = [ "reduction"; "runs"; "spec-ok" ];
    rows =
      [
        reduction "Omega -> Upsilon (complement)" (fun i ->
            let rng, n_plus_1, pattern = drawn ~base:1 ~latest:50 i in
            let d = Omega.make ~rng ~pattern ~stab_time:60 () in
            Upsilon.check (Pairwise.upsilon_of_omega ~n_plus_1 d) ~pattern ~stab_by:60
              ~horizon:160
            = Ok ());
        reduction "Omega_n -> Upsilon (complement)" (fun i ->
            let rng, n_plus_1, pattern = drawn ~base:100 ~latest:50 i in
            let d = Omega_k.make ~rng ~pattern ~k:(n_plus_1 - 1) ~stab_time:60 () in
            Upsilon.check (Pairwise.upsilon_of_omega_k ~n_plus_1 d) ~pattern ~stab_by:60
              ~horizon:160
            = Ok ());
        reduction "Omega^f -> Upsilon^f (complement)" (fun i ->
            let rng = Rng.create (i + 200) in
            let n_plus_1 = 4 and f = 1 + (i mod 3) in
            let pattern = Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:50 in
            let d = Omega_k.make ~rng ~pattern ~k:f ~stab_time:60 () in
            Upsilon_f.check (Pairwise.upsilon_of_omega_k ~n_plus_1 d) ~pattern ~f ~stab_by:60
              ~horizon:160
            = Ok ());
        reduction "Omega <-> Upsilon at n=1" (fun i ->
            let rng = Rng.create (i + 300) in
            let pattern = Failure_pattern.random rng ~n_plus_1:2 ~max_faulty:1 ~latest:40 in
            let omega = Omega.make ~rng ~pattern ~stab_time:50 () in
            let upsilon = Upsilon.make ~rng ~pattern ~stab_time:50 () in
            Upsilon.check (Pairwise.upsilon_of_omega ~n_plus_1:2 omega) ~pattern ~stab_by:50
              ~horizon:150
            = Ok ()
            && Omega.check (Pairwise.omega_of_upsilon_2proc upsilon) ~pattern ~stab_by:50
                 ~horizon:150
               = Ok ());
        reduction "Omega -> anti-Omega (cycling)" (fun i ->
            let rng, n_plus_1, pattern = drawn ~base:400 ~latest:40 i in
            let omega = Omega.make ~rng ~pattern ~stab_time:50 () in
            Anti_omega.check (Pairwise.anti_omega_of_omega ~n_plus_1 omega) ~pattern
              ~stab_by:50 ~horizon:250
            = Ok ());
        reduction "<>P -> Omega (min unsuspected)" (fun i ->
            let rng, n_plus_1, pattern = drawn ~base:600 ~latest:40 i in
            let dp = Ev_perfect.make ~rng ~pattern ~stab_time:50 () in
            let stable_from = Ev_perfect.stable_from ~pattern ~stab_time:50 in
            Omega.check (Pairwise.omega_of_ev_perfect ~n_plus_1 dp) ~pattern
              ~stab_by:stable_from ~horizon:(stable_from + 100)
            = Ok ());
        reduction "<>P -> Omega -> Upsilon (chain)" (fun i ->
            let rng, n_plus_1, pattern = drawn ~base:700 ~latest:40 i in
            let dp = Ev_perfect.make ~rng ~pattern ~stab_time:50 () in
            let stable_from = Ev_perfect.stable_from ~pattern ~stab_time:50 in
            Upsilon.check
              (Pairwise.upsilon_of_omega ~n_plus_1 (Pairwise.omega_of_ev_perfect ~n_plus_1 dp))
              ~pattern ~stab_by:stable_from ~horizon:(stable_from + 100)
            = Ok ());
        reduction "Upsilon^1 -> Omega (timestamps)" (fun i ->
            let rng = Rng.create (i + 500) in
            let n_plus_1 = 3 in
            let pattern = Failure_pattern.random rng ~n_plus_1 ~max_faulty:1 ~latest:60 in
            let d = Upsilon_f.make ~rng ~pattern ~f:1 ~stab_time:40 () in
            let red = Pairwise.Omega_from_upsilon1.create ~name:"o1" ~n_plus_1 ~upsilon1:d in
            let result =
              Run.exec ~pattern ~policy:(Policy.random (Rng.split rng)) ~horizon:60_000
                ~procs:(fun pid -> Pairwise.Omega_from_upsilon1.fibers red ~me:pid)
                ()
            in
            Pairwise.Omega_from_upsilon1.check red ~pattern ~last_time:result.Run.last_time
              ~tail:10_000
            = Ok ());
      ];
  }

(* ------------------------------------------------------------------ E7 *)

let e7_seeds = 15
let e7 ?(seeds = e7_seeds) ?(stab_times = [ 0; 200; 800; 3200 ]) () =
  let n_plus_1 = 4 in
  (* The lock-step round-robin schedule with distinct inputs is the one
     where the oracle truly gates progress (no converge instance ever
     commits by lucky asymmetry), so t(decide) tracks the detector's
     stabilization time; random schedules give the average case. A
     row's unit 0 is its lock-step run, the rest its random worlds. *)
  let line stab_time label protocol =
    let run = Harness.run (Harness.setup protocol) in
    row (seeds + 1)
      (fun i ->
        if i = 0 then run (lockstep_world ~n_plus_1 ~seed:424242)
        else
          run
            (Harness.random_world ~seed:((stab_time * 17) + i - 1) ~n_plus_1
               ~max_faulty:(n_plus_1 - 1) ()))
      (fun runs ->
        ( [ Report.cell_int stab_time; label; pct Harness.ok runs;
            Report.cell_int (List.hd runs).Harness.last_decision_time;
            mean (fun m -> m.Harness.last_decision_time) (List.tl runs) ],
          List.for_all Harness.ok runs ))
  in
  {
    id = "e7";
    claim =
      "Corollaries 3-4 context: the strictly weaker Upsilon still solves \
       n-set-agreement; both Upsilon-based and Omega_n-based algorithms \
       terminate, with cost driven by the detector's stabilization time";
    title = Printf.sprintf "E7: Upsilon vs Omega_n set agreement (n+1=%d)" n_plus_1;
    headers =
      [ "stab time"; "algorithm"; "spec-ok"; "t(decide) lockstep"; "mean t(decide) random" ];
    rows =
      List.concat_map
        (fun stab_time ->
          [ line stab_time "Upsilon (Fig 1)" (fig1 (Some stab_time));
            line stab_time "Omega_n [18]" (Omega_n { stab_time }) ])
        stab_times;
  }

(* ------------------------------------------------------------------ E8 *)

let e8 ?(horizons = [ 20_000; 80_000; 320_000 ]) () =
  let n_plus_1 = 3 in
  (* Each horizon is two rows on one schedule: the detector-free
     skeleton, then Fig 1 with Upsilon. *)
  let line horizon protocol label verdict =
    one (fun () ->
        let m =
          Harness.run { protocol; horizon; observers = [] } (lockstep_world ~n_plus_1 ~seed:1)
        in
        let deciders =
          n_plus_1 - Pid.Set.cardinal m.Harness.verdict.Agreement.Sa_spec.undecided_correct
        in
        let behaviour, ok = verdict m deciders in
        ( [ Report.cell_int horizon; label; Report.cell_int deciders;
            Report.cell_int m.Harness.rounds; behaviour ],
          ok ))
  in
  {
    id = "e8";
    claim =
      "Impossibility backdrop [2,14,20]: without failure information the \
       Fig-1 skeleton admits a non-terminating schedule at every horizon, \
       while the same schedule with Upsilon decides - the impossibility the \
       paper circumvents";
    title = Printf.sprintf "E8: wait-free impossibility vs Upsilon (n+1=%d)" n_plus_1;
    headers = [ "horizon"; "configuration"; "deciders"; "rounds burned"; "behaviour" ];
    rows =
      List.concat_map
        (fun horizon ->
          [
            line horizon Async "no detector (lockstep)" (fun _ deciders ->
                ("starves", deciders = 0));
            line horizon (fig1 (Some 0)) "Upsilon (same schedule)" (fun m _ ->
                (Printf.sprintf "decides by t=%d" m.Harness.last_decision_time, Harness.ok m));
          ])
        horizons;
  }

(* ------------------------------------------------------------------ A1 *)

let a1 ?(sizes = [ 2; 4; 8 ]) () =
  (* Each size is two rows: the register-built snapshot, then the
     native one. *)
  let line n_plus_1 impl label =
    one (fun () ->
        let snap = Snap.make ~impl ~name:"ab" ~size:n_plus_1 ~init:(fun _ -> 0) in
        let body pid () =
          for i = 1 to 10 do
            Snap.update snap ~me:pid i;
            ignore (Snap.scan snap)
          done
        in
        let { Run.steps; _ } =
          Run.exec ~pattern:(Failure_pattern.no_failures ~n_plus_1)
            ~policy:(Policy.random (Rng.create 5)) ~horizon:5_000_000
            ~procs:(fun pid -> [ body pid ]) ()
        in
        ( [ Report.cell_int n_plus_1; label; Report.cell_int steps;
            Report.cell_float (float_of_int steps /. float_of_int (n_plus_1 * 20)) ],
          true ))
  in
  {
    id = "a1";
    claim =
      "Ablation: the register-built atomic snapshot [1] the paper's model \
       requires costs O(n) steps per operation vs 1 for a native object - \
       the protocols pay this faithfully";
    title = "A1: snapshot implementation ablation (10 update+scan pairs per process)";
    headers = [ "n+1"; "implementation"; "total steps"; "steps/op" ];
    rows =
      List.concat_map
        (fun n_plus_1 ->
          [ line n_plus_1 Snap.Registers "Afek et al. (registers)";
            line n_plus_1 Snap.Native "native (one step/op)" ])
        sizes;
  }

(* ------------------------------------------------------------------ A2 *)

let a2_seeds = 12
let a2 ?(seeds = a2_seeds) () =
  let open Agreement in
  let n_plus_1 = 3 in
  let all = Upsilon_sa.all_escapes in
  {
    id = "a2";
    claim =
      "Ablation: Fig 1's D[r]/D escape reads are jointly load-bearing for \
       Termination (removing both lets gladiators starve); individually \
       they are redundant escape paths";
    title = Printf.sprintf "A2: Fig-1 escape-condition ablation (n+1=%d)" n_plus_1;
    headers = [ "configuration"; "runs"; "termination"; "verdict" ];
    rows =
      List.map
        (fun (label, escapes, expect_termination) ->
          (* The adversarial setup where the escapes matter: failure-free,
             Upsilon pinned on a strict subset, lockstep scheduling. *)
          row seeds
            (fun i ->
              let policy =
                if i mod 2 = 0 then Policy.round_robin () else Policy.random (Rng.create (900 + i))
              in
              let pattern = Failure_pattern.no_failures ~n_plus_1 in
              let world = { Harness.pattern; policy; world_rng = Rng.create (800 + i) } in
              let fig1 = Harness.Fig1 { stab_time = Some 0; escapes } in
              let m = Harness.run { protocol = fig1; horizon = 400_000; observers = [] } world in
              m.Harness.verdict.Sa_spec.termination)
            (fun terminated ->
              let rate = Stats.mean (List.map (fun t -> if t then 1.0 else 0.0) terminated) in
              ( [ label; Report.cell_int seeds; Report.cell_pct rate;
                  (if expect_termination then "terminates" else "starves (expected)") ],
                if expect_termination then rate = 1.0 else rate < 1.0 )))
        [
          ("all escapes on", all, true);
          ("no Stable[r] watch", { all with watch_stable = false }, true);
          ("no D[r] adoption", { all with watch_round_d = false }, true);
          ("no D watch", { all with watch_final = false }, true);
          ("no D[r] and no D", { all with watch_round_d = false; watch_final = false }, false);
        ];
  }

(* ------------------------------------------------------------------ E9 *)

let e9_seeds = 20
let e9 ?(seeds = e9_seeds) ?(sizes = [ 2; 3; 4; 5 ]) () =
  let open Agreement in
  let open Detectors in
  {
    id = "e9";
    claim =
      "Corollary 4 context [13,21]: Omega_n boosts n-process consensus \
       objects to n+1-process consensus (while Theorem 1 / E3 shows the \
       strictly weaker Upsilon cannot); committee-indexed objects never \
       exceed their n ports";
    title = "E9: Omega_n-boosted consensus from n-consensus objects";
    headers =
      [ "n+1"; "runs"; "spec-ok"; "max ports used"; "mean objects"; "mean t(decide)" ];
    rows =
      List.map
        (fun n_plus_1 ->
          row seeds
            (fun i ->
              let world =
                rng_world ~seed:((n_plus_1 * 613) + i) ~n_plus_1
                  ~max_faulty:(n_plus_1 - 1) ~latest:300
              in
              let omega_n =
                Omega_k.make ~rng:world.world_rng ~pattern:world.pattern ~k:(n_plus_1 - 1) ()
              in
              let proto = Booster_consensus.create ~name:"boost" ~n_plus_1 ~omega_n in
              let m =
                Harness.run_agreement ~label:"booster" ~k:1 ~base:700
                  ~horizon:Harness.default_horizon
                  ~replay:(Some (Harness.History omega_n))
                  ~fibers:(fun ~me ~input -> [ Booster_consensus.proposer proto ~me ~input ])
                  ~decisions:(fun () -> Booster_consensus.decisions proto)
                  ~rounds:(fun () ->
                    List.fold_left (fun acc (_, r) -> max acc r) 0
                      (Booster_consensus.decision_rounds proto))
                  world
              in
              ( Harness.ok m,
                Booster_consensus.max_ports_used proto,
                Booster_consensus.objects_allocated proto,
                m.last_decision_time ))
            (fun runs ->
              let ports = List.fold_left (fun acc (_, p, _, _) -> max acc p) 0 runs in
              ( [ Report.cell_int n_plus_1; Report.cell_int seeds;
                  pct (fun (o, _, _, _) -> o) runs; Report.cell_int ports;
                  mean (fun (_, _, objs, _) -> objs) runs; mean (fun (_, _, _, t) -> t) runs ],
                List.for_all (fun (o, _, _, _) -> o) runs && ports <= n_plus_1 - 1 )))
        sizes;
  }

(* ----------------------------------------------------------------- E10 *)

let e10_seeds = 10
let e10 ?(seeds = e10_seeds) ?(sizes = [ 3; 5; 7 ]) () =
  let per_client = 2 in
  {
    id = "e10";
    claim =
      "Substrate bridge (Attiya-Bar-Noy-Dolev): the atomic registers the \
       paper assumes are emulable over asynchronous messages with a \
       correct majority - every op log linearizes, correct clients always \
       terminate";
    title =
      "E10: ABD register emulation over message passing (2 write+read \
       pairs per client)";
    headers = [ "n+1"; "max crashes"; "runs"; "atomic"; "live"; "mean op latency" ];
    rows =
      List.map
        (fun n_plus_1 ->
          let minority = (n_plus_1 - 1) / 2 in
          row seeds
            (fun i ->
              let { Harness.pattern; policy; _ } =
                rng_world ~seed:((n_plus_1 * 811) + i) ~n_plus_1 ~max_faulty:minority
                  ~latest:400
              in
              let abd = Abd.create ~name:"e10" ~n_plus_1 ~init:0 in
              let body me () =
                for j = 1 to per_client do
                  Abd.write abd ~me ~key:"r" ((100 * (me + 1)) + j);
                  ignore (Abd.read abd ~me ~key:"r")
                done
              in
              ignore
                (Run.exec ~pattern ~policy ~horizon:800_000
                   ~procs:(fun pid -> [ Abd.server abd ~me:pid; body pid ])
                   ());
              let ops = Abd.oplog abd in
              let live =
                Pid.Set.for_all
                  (fun p ->
                    List.length (List.filter (fun o -> Pid.equal o.Abd.pid p) ops)
                    = 2 * per_client)
                  (Failure_pattern.correct pattern)
              in
              let atomic = Abd.check_atomicity abd = Ok () in
              (atomic, live, List.map (fun o -> o.Abd.responded - o.Abd.invoked) ops))
            (fun results ->
              ( [ Report.cell_int n_plus_1; Report.cell_int minority; Report.cell_int seeds;
                  pct (fun (a, _, _) -> a) results; pct (fun (_, l, _) -> l) results;
                  Report.cell_float
                    (Stats.mean_int (List.concat_map (fun (_, _, l) -> l) results)) ],
                List.for_all (fun (atomic, live, _) -> atomic && live) results )))
        sizes;
  }

(* ----------------------------------------------------------------- E11 *)

let e11_seeds = 6
let e11 ?(seeds = e11_seeds) ?(sizes = [ 3; 5 ]) ?(detectors = Harness.Oracle) () =
  (* One row per size: Omega the oracle (its world drawn from one
     generator), or the live min-unsuspected leader of a heartbeat ◇P,
     whose run quiesces once every correct process has decided (within
     a few thousand steps); its horizon only bounds a run that fails
     to. *)
  let line detectors n_plus_1 =
    let minority = (n_plus_1 - 1) / 2 in
    row seeds
      (fun i ->
        let seed = (n_plus_1 * 907) + i in
        let horizon, world =
          match detectors with
          | Harness.Oracle ->
              (3_000_000, rng_world ~seed ~n_plus_1 ~max_faulty:minority ~latest:300)
          | Harness.Heartbeat _ ->
              (120_000, Harness.random_world ~seed ~n_plus_1 ~max_faulty:minority ~latest:300 ())
        in
        let m, memory = Harness.run_msg_consensus ~horizon ~detectors world in
        (Harness.ok m, memory = Ok (), m.Harness.last_decision_time))
      (fun runs ->
        ( [ (match detectors with
            | Harness.Oracle -> Report.cell_int n_plus_1
            | Harness.Heartbeat _ -> Printf.sprintf "%d (hb Omega)" n_plus_1);
            Report.cell_int minority; Report.cell_int seeds; pct (fun (o, _, _) -> o) runs;
            pct (fun (_, a, _) -> a) runs; mean (fun (_, _, t) -> t) runs ],
          List.for_all (fun (o, a, _) -> o && a) runs ))
  in
  {
    id = "e11";
    claim =
      "End-to-end lowering: Omega-based consensus runs unchanged over \
       ABD-emulated registers in a message-passing system with minority \
       crashes - agreement/validity/termination hold and the emulated \
       memory linearizes in every run";
    title = "E11: message-passing consensus (Omega + commit-adopt over ABD)";
    headers = [ "n+1"; "max crashes"; "runs"; "spec-ok"; "memory atomic"; "mean t(decide)" ];
    rows =
      List.map (line Harness.Oracle) sizes
      @ if detectors = Harness.Oracle then [] else List.map (line detectors) sizes;
  }

(* ------------------------------------------------------------------ A3 *)

let a3_seeds = 12
let a3 ?(seeds = a3_seeds) () =
  let n_plus_1 = 4 and f = 2 in
  (* The snapshot path of Fig 2 (lines 15-30) only runs when every
     correct process is a gladiator: pin Υᶠ to Π over a pattern with one
     crash, under lock-step scheduling, so A[r][k] is on the critical
     path. The "random" scenario is the average case, where round-1
     converge usually decides first. *)
  let fig2 snapshot ~pinned = Harness.setup (Fig2 { f; snapshot; pinned }) in
  let gated i =
    let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (3, 60 + i) ] in
    { Harness.pattern; policy = Policy.round_robin (); world_rng = Rng.create (4100 + i) }
  in
  let random i = Harness.random_world ~seed:(4000 + i) ~n_plus_1 ~max_faulty:f () in
  let line impl scenario ~pinned world =
    row seeds
      (fun i -> Harness.run (fig2 impl ~pinned) (world i))
      (fun runs ->
        ( [ Snap.impl_name impl; scenario; Report.cell_int seeds; pct Harness.ok runs;
            mean (fun m -> m.Harness.total_steps) runs ],
          List.for_all Harness.ok runs ))
  in
  {
    id = "a3";
    claim =
      "Ablation: Fig 2 run on the paper-faithful register-built snapshots \
       vs native snapshot objects - correctness is identical, the faithful \
       construction pays the Theta(n) per-operation step cost inside the \
       protocol";
    title = Printf.sprintf "A3: Fig-2 snapshot-substrate ablation (n+1=%d, f=%d)" n_plus_1 f;
    headers = [ "snapshot impl"; "scenario"; "runs"; "spec-ok"; "mean steps" ];
    rows =
      List.concat_map
        (fun impl ->
          [ line impl "gladiator-gated (lockstep)" ~pinned:true gated;
            line impl "random worlds" ~pinned:false random ])
        [ Snap.Registers; Snap.Native ];
  }

(* ------------------------------------------------- c1: model checking *)

(* One exhaustive check, whose own pool runs inline inside the
   experiment's unit, as a line and whether it held: it holds when it
   finds a violation exactly when one is expected, and every violation
   it finds is shrunk. *)
let check ~cells ?procs ~depth ?horizon ?mutant obj ~expect_violation () =
  let o = Harness.check_exhaustive ?procs ~depth ?horizon ?mutant obj in
  ( Check.Scenario.to_string obj
    :: (match mutant with None -> "-" | Some m -> Mutant.to_string m)
    :: cells o,
    match o.Harness.violation with
    | None -> not expect_violation
    | Some v -> expect_violation && v.Harness.shrunk )

(* A table of checks as one row, a unit per check. *)
let checks lines =
  let units = Array.of_list lines in
  { units = Array.length units; unit = (fun i -> units.(i) ());
    fold = (fun results -> (List.map fst results, List.for_all snd results)) }

let c1 ?(depth = 6) ?(mutant_depth = 12) () =
  let row =
    check ~cells:(fun o ->
        [ Report.cell_int o.Harness.check_procs; Report.cell_int o.Harness.check_depth;
          Report.cell_int o.Harness.patterns_swept; Report.cell_int o.Harness.executions;
          Report.cell_int o.Harness.naive_bound;
          (match o.Harness.violation with
          | None -> "none"
          | Some v ->
              Printf.sprintf "caught (prefix %d, crashes %d)"
                (List.length v.Harness.cex_prefix)
                (Pid.Set.cardinal (Failure_pattern.faulty v.Harness.cex_pattern))) ])
  in
  {
    id = "c1";
    claim =
      "Model checking: DPOR exploration with linearizability/agreement \
       checking passes every clean scenario and catches all three planted \
       mutants with a shrunk, replayable counterexample";
    title = "C1: DPOR model checking - clean objects vs mutants";
    headers =
      [ "object"; "mutant"; "procs"; "depth"; "patterns"; "execs"; "naive bound"; "violation" ];
    rows =
      [ checks
          [ row Check.Scenario.Register ~depth ~expect_violation:false;
            row Check.Scenario.Snapshot ~depth ~expect_violation:false;
            row Check.Scenario.Abd ~procs:3 ~depth ~expect_violation:false;
            row Check.Scenario.Commit_adopt ~depth ~expect_violation:false;
            row Check.Scenario.Abd ~procs:3 ~depth ~mutant:Mutant.Abd_skip_write_back
              ~expect_violation:true;
            row Check.Scenario.Snapshot ~procs:3 ~depth:mutant_depth
              ~mutant:Mutant.Snapshot_single_collect ~expect_violation:true;
            row Check.Scenario.Commit_adopt ~depth ~mutant:Mutant.Converge_drop_phase2
              ~expect_violation:true ] ];
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
let d1 ?(seeds = d1_seeds) () =
  {
    id = "d1";
    claim =
      "Implemented detectors: increasing-timeout heartbeats over partially \
       synchronous links satisfy the \xE2\x97\x87P / \xE2\x97\x87S specs (validated on the \
       reconstructed history, plus link contract and crash isolation) on \
       every sampled GST/delay/loss family";
    title = "D1: heartbeat \xE2\x97\x87P/\xE2\x97\x87S conformance across link families (n+1=3)";
    headers = [ "links"; "mode"; "gst"; "loss%"; "runs"; "spec-ok"; "mean t(stabilize)" ];
    rows =
      List.concat_map
        (fun (label, net) ->
          List.map
            (fun (mode_label, mode) ->
              row seeds
                (fun i ->
                  Harness.run_hb_detector ~mode ~net
                    (Harness.random_world
                       ~seed:((Hashtbl.hash label * 53) + (31 * i))
                       ~n_plus_1:3 ~max_faulty:1 ~latest:60 ()))
                (fun runs ->
                  let ok (v, _) = Result.is_ok v in
                  ( [ label; mode_label; Report.cell_int net.Link.gst;
                      Report.cell_int net.Link.loss_pct; Report.cell_int seeds; pct ok runs;
                      mean snd runs ],
                    List.for_all ok runs )))
            [ ("evP", `Ev_perfect); ("evS", `Ev_strong) ])
        hb_config_grid;
  }

(* ------------------------------- d2: oracle vs implemented detectors *)

let d2_seeds = 3
let d2 ?(seeds = d2_seeds) () =
  let net = { Link.gst = 60; delta = 2; pre_delay = 8; loss_pct = 40; link_seed = 6 } in
  (* Each unit runs one world once with each detector choice, as
     (oracle_ok, implemented_ok, implemented_t). *)
  let both title run =
    row seeds
      (fun i ->
        let oracle, _ = run i Harness.Oracle in
        let implemented, t = run i (Harness.Heartbeat net) in
        (oracle, implemented, t))
      (fun runs ->
        ( [ title; Report.cell_int seeds; pct (fun (o, _, _) -> o) runs;
            pct (fun (_, i, _) -> i) runs; pct (fun (o, i, _) -> o = i) runs;
            mean (fun (_, _, t) -> t) runs ],
          List.for_all (fun (o, i, _) -> o && i && o = i) runs ))
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
    title =
      Printf.sprintf "D2: oracle vs implemented detectors (links %s)" (Link.config_to_string net);
    headers =
      [ "experiment"; "runs"; "oracle ok"; "implemented ok"; "verdicts agree"; "mean t (impl)" ];
    rows =
      [
        both "Fig-3 extraction (\xE2\x97\x87P source)" (fun i detectors ->
            let verdict, stab =
              Harness.run_extraction_of ~f:2 ~source:(`Ev_perfect detectors)
                (Harness.random_world ~seed:(4000 + (17 * i)) ~n_plus_1:4 ~max_faulty:2
                   ~latest:150 ())
            in
            (Result.is_ok verdict, stab));
        both "msg consensus (\xCE\xA9 source)" (fun i detectors ->
            (* both runs quiesce once every correct process has decided
               (within ~5k steps, GST is 60); the horizon only bounds a
               run that fails to *)
            let m, memory =
              Harness.run_msg_consensus ~horizon:60_000 ~detectors
                (Harness.random_world ~seed:(6000 + (23 * i)) ~n_plus_1:3 ~max_faulty:1
                   ~latest:100 ())
            in
            (Harness.ok m && memory = Ok (), m.Harness.last_decision_time));
      ];
  }

(* ------------------------- d3: partial-synchrony model checking rows *)

let d3 ?(depth = 5) () =
  let row =
    check ~procs:2 ~depth ~horizon:500 ~cells:(fun o ->
        [ Report.cell_int o.Harness.check_depth; Report.cell_int o.Harness.patterns_swept;
          Report.cell_int o.Harness.executions;
          (match o.Harness.violation with
          | None -> "none"
          | Some v -> Printf.sprintf "caught (prefix %d)" (List.length v.Harness.cex_prefix)) ])
  in
  let hb = Check.Scenario.Hb_detector Check.Scenario.default_chaos in
  {
    id = "d3";
    claim =
      "Partial synchrony under exploration: no pre-GST delay/loss/ordering \
       within the DPOR window can break the link contract, crash isolation, \
       or the implemented detectors' specs - while both planted heartbeat \
       mutants are caught with a shrunk, replayable counterexample";
    title = "D3: DPOR over partially synchronous links - clean vs heartbeat mutants";
    headers = [ "object"; "mutant"; "depth"; "patterns"; "execs"; "violation" ];
    rows =
      [ checks
          [ row hb ~expect_violation:false;
            row (Check.Scenario.Link_chaos Check.Scenario.default_chaos) ~expect_violation:false;
            row hb ~mutant:Mutant.Hb_timeout_never_increased ~expect_violation:true;
            row hb ~mutant:Mutant.Hb_suspected_not_restored ~expect_violation:true ] ];
  }

(* ------------------------------------------------------------- drivers *)

let e1_fig1_set_agreement ?jobs ?seeds ?sizes () = run ?jobs (e1 ?seeds ?sizes ())
let e2_fig2_f_resilient ?jobs ?seeds ?sizes () = run ?jobs (e2 ?seeds ?sizes ())
let e3_theorem1_adversary ?jobs ?max_phases () = run ?jobs (e3 ?max_phases ())
let e4_theorem5_adversary ?jobs ?max_phases () = run ?jobs (e4 ?max_phases ())
let e5_fig3_extraction ?jobs ?seeds ?detectors () = run ?jobs (e5 ?seeds ?detectors ())
let e6_pairwise_reductions ?jobs ?seeds () = run ?jobs (e6 ?seeds ())
let e7_upsilon_vs_omega_n ?jobs ?seeds ?stab_times () = run ?jobs (e7 ?seeds ?stab_times ())
let e8_impossibility ?jobs ?horizons () = run ?jobs (e8 ?horizons ())
let e9_booster_consensus ?jobs ?seeds ?sizes () = run ?jobs (e9 ?seeds ?sizes ())
let e10_abd_emulation ?jobs ?seeds ?sizes () = run ?jobs (e10 ?seeds ?sizes ())
let e11_msg_consensus ?jobs ?seeds ?sizes ?detectors () =
  run ?jobs (e11 ?seeds ?sizes ?detectors ())
let a1_snapshot_ablation ?jobs ?sizes () = run ?jobs (a1 ?sizes ())
let a2_escape_ablation ?jobs ?seeds () = run ?jobs (a2 ?seeds ())
let a3_fig2_snapshot_cost ?jobs ?seeds () = run ?jobs (a3 ?seeds ())
let c1_model_checking ?jobs ?depth ?mutant_depth () = run ?jobs (c1 ?depth ?mutant_depth ())
let d1_hb_conformance ?jobs ?seeds ?spans () = run ?jobs ?spans (d1 ?seeds ())
let d2_hb_vs_oracle ?jobs ?seeds ?spans () = run ?jobs ?spans (d2 ?seeds ())
let d3_hb_model_checking ?jobs ?depth ?spans () = run ?jobs ?spans (d3 ?depth ())

(* --------------------------------------------------------------- index *)

type config = {
  scale : int;
  jobs : int;
  spans : Obs.Span.scope;
  detectors : Harness.detectors;
  deadline : unit -> bool;
}

type entry = { id : string; description : string; run : config -> outcome }

let registry =
  let e id description exp =
    let run c = run ~jobs:c.jobs ~spans:c.spans ~deadline:c.deadline (exp c) in
    { id; description; run }
  in
  [
    e "e1" "Fig 1 / Theorem 2: Upsilon-based n-set-agreement" (fun c ->
        e1 ~seeds:(e1_seeds * c.scale) ());
    e "e2" "Fig 2 / Theorem 6: Upsilon^f-based f-resilient f-set-agreement" (fun c ->
        e2 ~seeds:(e2_seeds * c.scale) ());
    e "e3" "Theorem 1 adversary: Upsilon cannot be turned into Omega_n" (fun c ->
        e3 ~max_phases:(e3_phases * c.scale) ());
    e "e4" "Theorem 5 adversary: Upsilon^f cannot be turned into Omega^f" (fun c ->
        e4 ~max_phases:(e4_phases * c.scale) ());
    e "e5" "Fig 3 / Theorem 10: extracting Upsilon^f from stable detectors" (fun c ->
        e5 ~seeds:(e5_seeds * c.scale) ~detectors:c.detectors ());
    e "e6" "Section 4 / 5.3 pairwise detector reductions" (fun c ->
        e6 ~seeds:(e6_seeds * c.scale) ());
    e "e7" "Corollaries 3-4: Upsilon vs Omega_n set agreement cost" (fun c ->
        e7 ~seeds:(e7_seeds * c.scale) ());
    e "e8" "Impossibility backdrop: detector-free starvation schedule" (fun _ -> e8 ());
    e "e9" "Corollary 4: Omega_n-boosted consensus from n-consensus objects" (fun c ->
        e9 ~seeds:(e9_seeds * c.scale) ());
    e "e10" "ABD: atomic registers over message passing (substrate bridge)" (fun c ->
        e10 ~seeds:(e10_seeds * c.scale) ());
    e "e11" "Message-passing consensus: Omega + commit-adopt over ABD" (fun c ->
        e11 ~seeds:(e11_seeds * c.scale) ~detectors:c.detectors ());
    e "a1" "Ablation: register-built vs native snapshot cost" (fun _ -> a1 ());
    e "a2" "Ablation: Fig 1 escape conditions" (fun c -> a2 ~seeds:(a2_seeds * c.scale) ());
    e "a3" "Ablation: Fig 2 on register-built vs native snapshots" (fun c ->
        a3 ~seeds:(a3_seeds * c.scale) ());
    e "c1" "Model checking: DPOR + linearizability on clean and mutated objects" (fun _ -> c1 ());
    e "d1" "Implemented detectors: heartbeat EvP/EvS conformance across link families" (fun c ->
        d1 ~seeds:(d1_seeds * c.scale) ());
    e "d2" "Substitutability: oracle vs implemented detectors on paper experiments" (fun c ->
        d2 ~seeds:(d2_seeds * c.scale) ());
    e "d3" "Model checking partial synchrony: clean links and heartbeat mutants" (fun _ -> d3 ());
  ]

let find id = List.find_opt (fun e -> e.id = String.lowercase_ascii id) registry

let pp ppf (t : outcome) =
  Format.fprintf ppf "[%s] %s@.claim: %s@.@.%a@." t.id
    (if t.ok then "CLAIM HOLDS" else "CLAIM FAILED")
    t.claim Report.render t.table
