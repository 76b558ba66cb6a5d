(* Unit and property tests for the simulation kernel: pids, rng, failure
   patterns, fibers, scheduler, policies, trace oracles. *)

open Kernel

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* -- Pid ---------------------------------------------------------------- *)

let test_pid_all () =
  checki "5 pids" 5 (List.length (Pid.all ~n_plus_1:5));
  check Alcotest.string "paper naming" "p1" (Pid.to_string (Pid.of_index 0));
  check Alcotest.string "paper naming" "p4" (Pid.to_string (Pid.of_index 3))

let test_pid_set_complement () =
  let s = Pid.Set.of_indices [ 0; 2 ] in
  let c = Pid.Set.complement ~n_plus_1:4 s in
  checkb "p2 in complement" true (Pid.Set.mem (Pid.of_index 1) c);
  checkb "p1 not in complement" false (Pid.Set.mem (Pid.of_index 0) c);
  checki "complement size" 2 (Pid.Set.cardinal c)

let test_pid_subsets () =
  (* 2^3 - 1 non-empty subsets of a 3-process system *)
  checki "subset count" 7 (List.length (Pid.Set.subsets ~n_plus_1:3));
  List.iter
    (fun s -> checkb "non-empty" false (Pid.Set.is_empty s))
    (Pid.Set.subsets ~n_plus_1:3)

(* -- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    checkb "in range" true (v >= 0 && v < 10);
    let w = Rng.int_in r 5 9 in
    checkb "in closed range" true (w >= 5 && w <= 9)
  done

let test_rng_subset_constraints () =
  let r = Rng.create 3 in
  for _ = 1 to 200 do
    let s = Rng.subset r ~proper:true ~nonempty:true [ 1; 2; 3; 4 ] in
    let k = List.length s in
    checkb "proper nonempty" true (k >= 1 && k <= 3)
  done

(* -- Failure patterns ---------------------------------------------------- *)

let test_pattern_basics () =
  let p = Failure_pattern.make ~n_plus_1:4 ~crashes:[ (1, 10); (3, 0) ] in
  checkb "p2 crashed at 10" true (Failure_pattern.crashed_at p 1 10);
  checkb "p2 alive at 9" false (Failure_pattern.crashed_at p 1 9);
  checkb "p4 crashed at 0" true (Failure_pattern.crashed_at p 3 0);
  checki "two faulty" 2 (Pid.Set.cardinal (Failure_pattern.faulty p));
  checki "two correct" 2 (Pid.Set.cardinal (Failure_pattern.correct p));
  checki "max crash" 10 (Failure_pattern.max_crash_time p);
  checkb "in E_2" true (Failure_pattern.env_ok ~f:2 p);
  checkb "not in E_1" false (Failure_pattern.env_ok ~f:1 p)

let test_pattern_rejects_all_faulty () =
  Alcotest.check_raises "all faulty rejected"
    (Invalid_argument
       "Failure_pattern.make: at least one process must be correct")
    (fun () ->
      ignore (Failure_pattern.make ~n_plus_1:2 ~crashes:[ (0, 1); (1, 5) ]))

let test_pattern_random_respects_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    let p = Failure_pattern.random rng ~n_plus_1:5 ~max_faulty:3 ~latest:50 in
    checkb "at most 3 faulty" true
      (Pid.Set.cardinal (Failure_pattern.faulty p) <= 3);
    checkb "some correct" true
      (not (Pid.Set.is_empty (Failure_pattern.correct p)));
    checkb "crash times bounded" true (Failure_pattern.max_crash_time p <= 50)
  done

(* -- Scheduler / fibers -------------------------------------------------- *)

(* A process that takes [k] nop steps. *)
let nops k () =
  for _ = 1 to k do
    Sim.yield ()
  done

let test_run_all_steps_counted () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ nops 5 ])
      ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  checki "15 steps" 15 result.steps;
  List.iter
    (fun p -> checki "5 steps each" 5 (Trace.steps_of (Run.trace result) p))
    (Pid.all ~n_plus_1:3)

let test_crash_stops_process () =
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (0, 4) ] in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ nops 100 ])
      ()
  in
  checkb "p1 stopped early" true (Trace.steps_of (Run.trace result) 0 < 100);
  checki "p2 ran to completion" 100 (Trace.steps_of (Run.trace result) 1);
  let violations = Oracle.check_run_conditions pattern (Run.trace result) in
  checki "no violations" 0 (List.length violations)

let test_crash_at_zero_means_no_steps () =
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (0, 0) ] in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ nops 10 ])
      ()
  in
  checki "p1 took no steps" 0 (Trace.steps_of (Run.trace result) 0);
  checki "p2 took all steps" 10 (Trace.steps_of (Run.trace result) 1)

let test_horizon_stops_run () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let forever () =
    while true do
      Sim.yield ()
    done
  in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~horizon:50
      ~procs:(fun _ -> [ forever ])
      ()
  in
  checkb "horizon" true (result.outcome = Scheduler.Horizon);
  checki "50 steps" 50 result.steps

let test_solo_policy_starves_others () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  let result =
    Run.exec ~pattern ~policy:(Policy.solo 1)
      ~procs:(fun _ -> [ nops 20 ])
      ()
  in
  checki "p2 alone ran" 20 (Trace.steps_of (Run.trace result) 1);
  checki "p1 starved" 0 (Trace.steps_of (Run.trace result) 0);
  checki "p3 starved" 0 (Trace.steps_of (Run.trace result) 2);
  (* solo stops once its process is done *)
  checkb "policy stop" true (result.outcome = Scheduler.Policy_stop)

let test_script_policy_order () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  let order = ref [] in
  let remember pid () =
    for _ = 1 to 2 do
      Sim.atomic Sim.Nop (fun ctx -> order := ctx.Sim.pid :: !order);
      ignore pid
    done
  in
  let result =
    Run.exec ~pattern
      ~policy:
        (Policy.script [ 2; 0; 1; 2; 0; 1 ] ~then_:(Policy.round_robin ()))
      ~procs:(fun pid -> [ remember pid ])
      ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  check
    (Alcotest.list Alcotest.int)
    "script order respected" [ 2; 0; 1; 2; 0; 1 ] (List.rev !order)

let step_order procs_steps policy =
  let n_plus_1 = List.length procs_steps in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let result =
    Run.exec ~pattern ~policy ~procs:(fun pid -> [ nops (List.nth procs_steps pid) ]) ()
  in
  List.filter_map
    (function Trace.Step { pid; _ } -> Some pid | _ -> None)
    (Run.trace result)

let test_round_robin_cursor_fairness () =
  (* after p1 quiesces the cursor keeps cycling from where it was, so the
     survivors alternate strictly instead of restarting at the lowest pid *)
  check
    (Alcotest.list Alcotest.int)
    "cursor keeps cycling"
    [ 0; 1; 2; 0; 1; 2; 1; 2; 1; 2 ]
    (step_order [ 2; 4; 4 ] (Policy.round_robin ()))

let test_script_policy_exhaustion () =
  (* entries for a quiesced process are skipped, and an exhausted script
     hands the rest of the run to [then_] *)
  check
    (Alcotest.list Alcotest.int)
    "skip + fall back"
    [ 1; 1; 0; 0; 0 ]
    (step_order [ 3; 2 ]
       (Policy.script [ 1; 1; 1 ] ~then_:(Policy.round_robin ())))

let test_random_policy_is_fair () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:4 in
  let rng = Rng.create 99 in
  let result =
    Run.exec ~pattern ~policy:(Policy.random rng) ~horizon:4000
      ~procs:(fun _ ->
        [
          (fun () ->
            while true do
              Sim.yield ()
            done);
        ])
      ()
  in
  List.iter
    (fun p ->
      let steps = Trace.steps_of (Run.trace result) p in
      checkb "roughly fair share" true (steps > 700 && steps < 1300))
    (Pid.all ~n_plus_1:4)

let test_two_fibers_share_process () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:1 in
  let tags = ref [] in
  let tagger tag () =
    for _ = 1 to 3 do
      Sim.atomic Sim.Nop (fun _ -> tags := tag :: !tags)
    done
  in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ tagger "a"; tagger "b" ])
      ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  check
    (Alcotest.list Alcotest.string)
    "fibers alternate" [ "a"; "b"; "a"; "b"; "a"; "b" ] (List.rev !tags)

let test_local_computation_is_free () =
  (* Heavy local work between atomics must not consume steps. *)
  let pattern = Failure_pattern.no_failures ~n_plus_1:1 in
  let body () =
    let acc = ref 0 in
    for i = 1 to 10_000 do
      acc := !acc + i
    done;
    Sim.yield ();
    for i = 1 to 10_000 do
      acc := !acc - i
    done;
    Sim.yield ()
  in
  let result =
    Run.exec ~pattern ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ body ]) ()
  in
  checki "exactly two steps" 2 result.steps

let test_trace_times_strictly_increase () =
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (2, 7) ] in
  let result =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ nops 10 ])
      ()
  in
  checki "no violations" 0
    (List.length (Oracle.check_run_conditions pattern (Run.trace result)))

let test_outputs_recorded () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let body () = Sim.output ~label:"decide" ~value:"17" in
  let result =
    Run.exec ~pattern ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ body ]) ()
  in
  let decisions = Oracle.decisions (Run.trace result) in
  checki "two decisions" 2 (List.length decisions);
  List.iter (fun (_, v) -> checki "value 17" 17 v) decisions

(* Determinism: the same seed must give the same trace. *)
let test_run_determinism () =
  let run seed =
    let rng = Rng.create seed in
    let pattern =
      Failure_pattern.random rng ~n_plus_1:4 ~max_faulty:2 ~latest:30
    in
    let result =
      Run.exec ~pattern ~policy:(Policy.random rng) ~horizon:200
        ~procs:(fun _ -> [ nops 50 ])
        ()
    in
    Format.asprintf "%a" Trace.pp (Run.trace result)
  in
  check Alcotest.string "same seed, same trace" (run 5) (run 5);
  checkb "different seeds differ" true (run 5 <> run 6)

(* -- Daemon fibers --------------------------------------------------------- *)

(* A local echo service: p2's server loop answers each request p1's
   client leaves in [req]; the client makes [rounds] round trips. Without
   [Sim.daemon] the server keeps the run going to the horizon. *)
let echo_world ~daemon ~rounds =
  let req = ref None and resp = ref None in
  let server () =
    if daemon then Sim.daemon ();
    while true do
      Sim.atomic (Sim.Write { obj = "echo" }) (fun _ ->
          match !req with
          | Some v ->
              req := None;
              resp := Some v
          | None -> ())
    done
  in
  let client () =
    for i = 1 to rounds do
      Sim.atomic (Sim.Write { obj = "echo" }) (fun _ -> req := Some i);
      let rec await () =
        let got =
          Sim.atomic (Sim.Read { obj = "echo" }) (fun _ ->
              let r = !resp in
              resp := None;
              r)
        in
        if got = None then await ()
      in
      await ()
    done
  in
  fun pid -> if pid = 0 then [ client ] else [ server ]

let run_echo ?(pattern = Failure_pattern.no_failures ~n_plus_1:2) ~daemon
    ~rounds () =
  Run.exec ~pattern
    ~policy:(Policy.random (Rng.create 17))
    ~horizon:2_000
    ~procs:(echo_world ~daemon ~rounds)
    ()

let last_step_pid trace =
  List.fold_left
    (fun acc -> function Trace.Step { pid; _ } -> Some pid | Crash _ -> acc)
    None trace

let test_daemon_stops_at_last_client_step () =
  let served = run_echo ~daemon:true ~rounds:5 () in
  let forever = run_echo ~daemon:false ~rounds:5 () in
  checkb "daemon run quiescent" true (served.outcome = Scheduler.Quiescent);
  checkb "plain run hits horizon" true (forever.outcome = Scheduler.Horizon);
  check
    Alcotest.(option int)
    "ends at the client's last step" (Some 0)
    (last_step_pid (Run.trace served));
  checki "client made its 5 requests" 5
    (List.length
       (List.filter
          (function
            | Trace.Step { pid = 0; kind = Sim.Write _; _ } -> true
            | _ -> false)
          (Run.trace served)));
  let n = List.length (Run.trace served) in
  check Alcotest.string "a prefix of the plain run"
    (Format.asprintf "%a" Trace.pp (Run.trace served))
    (Format.asprintf "%a" Trace.pp
       (List.filteri (fun i _ -> i < n) (Run.trace forever)))

let test_daemon_stops_at_last_client_crash () =
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (0, 10) ] in
  let result = run_echo ~pattern ~daemon:true ~rounds:100 () in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  checki "no step at or after the crash" 9 result.steps;
  match List.rev (Run.trace result) with
  | Trace.Crash { pid = 0; time = 10 } :: _ -> ()
  | _ -> Alcotest.fail "the client's crash is the last event"

let test_only_daemons_take_no_step () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  let idle () =
    Sim.daemon ();
    while true do
      Sim.yield ()
    done
  in
  let result =
    Run.exec ~pattern ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ idle ]) ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  checki "no steps" 0 result.steps;
  checki "empty trace" 0 (List.length (Run.trace result))

let test_late_daemon_rejected () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:1 in
  let late () =
    Sim.yield ();
    Sim.daemon ()
  in
  Alcotest.check_raises "after the first step"
    (Invalid_argument "Sim.daemon: called after the fiber's first step")
    (fun () ->
      ignore
        (Run.exec ~pattern ~policy:(Policy.round_robin ())
           ~procs:(fun _ -> [ late ]) ()))

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:100 ~name:"random patterns stay within E_f"
      (pair small_nat small_nat)
      (fun (seed, f_raw) ->
        let rng = Rng.create seed in
        let n_plus_1 = 3 + (seed mod 4) in
        let max_faulty = f_raw mod n_plus_1 in
        let p =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty ~latest:100
        in
        Failure_pattern.env_ok ~f:max_faulty p);
    Test.make ~count:50 ~name:"round-robin run satisfies run conditions"
      small_nat
      (fun seed ->
        let rng = Rng.create seed in
        let n_plus_1 = 2 + (seed mod 4) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1)
            ~latest:40
        in
        let result =
          Run.exec ~pattern
            ~policy:(Policy.round_robin ())
            ~horizon:300
            ~procs:(fun _ -> [ nops 60 ])
            ()
        in
        Oracle.check_run_conditions pattern (Run.trace result) = []);
    Test.make ~count:200 ~name:"crashed_by is F(t), shared per crash time"
      (pair small_nat small_nat)
      (fun (seed, f_raw) ->
        let rng = Rng.create seed in
        let n_plus_1 = 2 + (seed mod 6) in
        let pattern =
          Failure_pattern.random rng ~n_plus_1
            ~max_faulty:(f_raw mod n_plus_1) ~latest:60
        in
        let filtered time =
          Pid.all ~n_plus_1
          |> List.filter (fun p -> Failure_pattern.crashed_at pattern p time)
          |> Pid.Set.of_list
        in
        let last = Failure_pattern.max_crash_time pattern + 1 in
        List.for_all
          (fun time ->
            let got = Failure_pattern.crashed_by pattern time in
            Pid.Set.equal got (filtered time)
            && (time = 0
               || (not (Pid.Set.equal got (filtered (time - 1))))
               || got == Failure_pattern.crashed_by pattern (time - 1)))
          (List.init (last + 1) Fun.id));
  ]

let suite =
  [
    Alcotest.test_case "pid basics" `Quick test_pid_all;
    Alcotest.test_case "pid set complement" `Quick test_pid_set_complement;
    Alcotest.test_case "pid subsets" `Quick test_pid_subsets;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng subset constraints" `Quick
      test_rng_subset_constraints;
    Alcotest.test_case "pattern basics" `Quick test_pattern_basics;
    Alcotest.test_case "pattern rejects all-faulty" `Quick
      test_pattern_rejects_all_faulty;
    Alcotest.test_case "random pattern bounds" `Quick
      test_pattern_random_respects_bounds;
    Alcotest.test_case "steps counted" `Quick test_run_all_steps_counted;
    Alcotest.test_case "crash stops process" `Quick test_crash_stops_process;
    Alcotest.test_case "crash at zero" `Quick test_crash_at_zero_means_no_steps;
    Alcotest.test_case "horizon stops run" `Quick test_horizon_stops_run;
    Alcotest.test_case "solo starves others" `Quick
      test_solo_policy_starves_others;
    Alcotest.test_case "script order" `Quick test_script_policy_order;
    Alcotest.test_case "round-robin cursor fairness" `Quick
      test_round_robin_cursor_fairness;
    Alcotest.test_case "script exhaustion falls back" `Quick
      test_script_policy_exhaustion;
    Alcotest.test_case "random policy fair" `Quick test_random_policy_is_fair;
    Alcotest.test_case "two fibers per process" `Quick
      test_two_fibers_share_process;
    Alcotest.test_case "local computation free" `Quick
      test_local_computation_is_free;
    Alcotest.test_case "trace conditions with crash" `Quick
      test_trace_times_strictly_increase;
    Alcotest.test_case "outputs recorded" `Quick test_outputs_recorded;
    Alcotest.test_case "run determinism" `Quick test_run_determinism;
    Alcotest.test_case "daemon run stops at the last client step" `Quick
      test_daemon_stops_at_last_client_step;
    Alcotest.test_case "daemon run stops at the last client crash" `Quick
      test_daemon_stops_at_last_client_crash;
    Alcotest.test_case "daemon-only world takes no step" `Quick
      test_only_daemons_take_no_step;
    Alcotest.test_case "late Sim.daemon rejected" `Quick
      test_late_daemon_rejected;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
