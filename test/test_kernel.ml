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

(* The enumeration [subsets] has always used: mask m, for m = 1 .. 2^(n+1)
   - 1, is the set of the pids whose bit is set in m. *)
let test_pid_subsets_mask_order () =
  for n_plus_1 = 1 to 6 do
    let expected =
      List.init ((1 lsl n_plus_1) - 1) (fun i ->
          let mask = i + 1 in
          List.filter
            (fun p -> mask land (1 lsl p) <> 0)
            (List.init n_plus_1 Fun.id))
    in
    check
      Alcotest.(list (list int))
      (Printf.sprintf "n+1 = %d" n_plus_1)
      expected
      (List.map Pid.Set.elements (Pid.Set.subsets ~n_plus_1))
  done

(* A set is one machine word, so a system holds at most 63 processes. *)
let test_pid_cap () =
  checki "cap" 63 Pid.max_procs;
  checki "63 pids" 63 (List.length (Pid.all ~n_plus_1:63));
  checki "full 63" 63 (Pid.Set.cardinal (Pid.Set.full ~n_plus_1:63));
  checkb "pid 62 is a member" true
    (Pid.Set.mem 62 (Pid.Set.full ~n_plus_1:Pid.max_procs));
  Alcotest.check_raises "Pid.all rejects 64"
    (Invalid_argument "Pid.all: at most 63 processes") (fun () ->
      ignore (Pid.all ~n_plus_1:64));
  Alcotest.check_raises "Failure_pattern.make rejects 64"
    (Invalid_argument "Failure_pattern.make: at most 63 processes") (fun () ->
      ignore (Failure_pattern.no_failures ~n_plus_1:64));
  Alcotest.check_raises "pid 63 cannot join a set"
    (Invalid_argument "Pid.Set: pid 63 outside 0..62") (fun () ->
      ignore (Pid.Set.singleton 63));
  checkb "out-of-range pids are not members" false
    (let all = Pid.Set.full ~n_plus_1:63 in
     Pid.Set.mem 63 all || Pid.Set.mem (-1) all)

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

(* At bound 3·2^60, [v mod bound] over 62 random bits would land below
   2^60 half the time; a uniform draw does a third of the time. The
   standard error over 200,000 draws is about 0.001. *)
let test_rng_uniform_large_bound () =
  let r = Rng.create 7 and third = 1 lsl 60 and draws = 200_000 in
  let low = ref 0 in
  for _ = 1 to draws do
    let v = Rng.int r (3 * third) in
    checkb "in range" true (v >= 0 && v < 3 * third);
    if v < third then incr low
  done;
  let share = float_of_int !low /. float_of_int draws in
  checkb (Printf.sprintf "a third below 2^60 (got %.4f)" share) true
    (Float.abs (share -. (1. /. 3.)) < 0.01)

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
  let result, trace =
    Testutil.exec_traced ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ nops 5 ])
      ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  checki "15 steps" 15 result.steps;
  List.iter
    (fun p -> checki "5 steps each" 5 (Trace.steps_of trace p))
    (Pid.all ~n_plus_1:3)

let test_crash_stops_process () =
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (0, 4) ] in
  let _, trace =
    Testutil.exec_traced ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ nops 100 ])
      ()
  in
  checkb "p1 stopped early" true (Trace.steps_of trace 0 < 100);
  checki "p2 ran to completion" 100 (Trace.steps_of trace 1);
  let violations = Oracle.check_run_conditions pattern trace in
  checki "no violations" 0 (List.length violations)

let test_crash_at_zero_means_no_steps () =
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (0, 0) ] in
  let _, trace =
    Testutil.exec_traced ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ nops 10 ])
      ()
  in
  checki "p1 took no steps" 0 (Trace.steps_of trace 0);
  checki "p2 took all steps" 10 (Trace.steps_of trace 1)

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
  let result, trace =
    Testutil.exec_traced ~pattern ~policy:(Policy.solo 1)
      ~procs:(fun _ -> [ nops 20 ])
      ()
  in
  checki "p2 alone ran" 20 (Trace.steps_of trace 1);
  checki "p1 starved" 0 (Trace.steps_of trace 0);
  checki "p3 starved" 0 (Trace.steps_of trace 2);
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
  let _, trace =
    Testutil.exec_traced ~pattern ~policy ~procs:(fun pid -> [ nops (List.nth procs_steps pid) ]) ()
  in
  List.filter_map
    (function Trace.Step { pid; _ } -> Some pid | _ -> None)
    trace

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
  let _, trace =
    Testutil.exec_traced ~pattern ~policy:(Policy.random rng) ~horizon:4000
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
      let steps = Trace.steps_of trace p in
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
  let _, trace =
    Testutil.exec_traced ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ nops 10 ])
      ()
  in
  checki "no violations" 0
    (List.length (Oracle.check_run_conditions pattern trace))

let test_outputs_recorded () =
  let pattern = Failure_pattern.no_failures ~n_plus_1:2 in
  let body () = Sim.output ~label:"decide" ~value:"17" in
  let _, trace =
    Testutil.exec_traced ~pattern ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ body ]) ()
  in
  let decisions = Oracle.decisions trace in
  checki "two decisions" 2 (List.length decisions);
  List.iter (fun (_, v) -> checki "value 17" 17 v) decisions

(* Determinism: the same seed must give the same trace. *)
let test_run_determinism () =
  let run seed =
    let rng = Rng.create seed in
    let pattern =
      Failure_pattern.random rng ~n_plus_1:4 ~max_faulty:2 ~latest:30
    in
    let _, trace =
      Testutil.exec_traced ~pattern ~policy:(Policy.random rng) ~horizon:200
        ~procs:(fun _ -> [ nops 50 ])
        ()
    in
    Format.asprintf "%a" Trace.pp trace
  in
  check Alcotest.string "same seed, same trace" (run 5) (run 5);
  checkb "different seeds differ" true (run 5 <> run 6)

(* A crash reached after the last step ends the run: p1 yields three
   times while p2 loops until it crashes at 10, so the run takes 9 steps
   but lasts until time 10 — the time the extraction tail and the
   heartbeat horizon read. *)
let test_crash_after_last_step_ends_run () =
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (1, 10) ] in
  let loop () =
    while true do
      Sim.yield ()
    done
  in
  let result, trace =
    Testutil.exec_traced ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ (if pid = 0 then nops 3 else loop) ])
      ()
  in
  checki "9 steps" 9 result.steps;
  checki "last time is the crash" 10 result.last_time;
  checki "as the trace says" (Trace.last_time trace) result.last_time;
  check
    Alcotest.(list (pair int int))
    "the crash" [ (1, 10) ] result.crashes

(* The scheduler's retained trace and the events an observer is passed
   are the same events in the same order. *)
let test_observer_sees_retained_trace () =
  let world () =
    let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (2, 250) ] in
    let fibers =
      List.map
        (fun pid -> Fiber.create ~pid ~name:"t" (nops 300))
        (Pid.all ~n_plus_1:3)
    in
    (pattern, Policy.random (Rng.create 41), fibers)
  in
  let pattern, policy, fibers = world () in
  let retained = Scheduler.create ~pattern ~policy ~fibers in
  ignore (Scheduler.run retained ~max_steps:2_000 : Scheduler.outcome);
  let seen = ref [] in
  let pattern, policy, fibers = world () in
  let observed =
    Scheduler.observed ~observe:(fun e -> seen := e :: !seen) ~pattern ~policy
      ~fibers ()
  in
  ignore (Scheduler.run observed ~max_steps:2_000 : Scheduler.outcome);
  let retained_trace = Scheduler.trace retained in
  checkb "spans several builder chunks" true
    (List.length retained_trace > 600);
  check Alcotest.string "same events"
    (Format.asprintf "%a" Trace.pp retained_trace)
    (Format.asprintf "%a" Trace.pp (List.rev !seen));
  checki "same last time" (Trace.last_time retained_trace)
    (Scheduler.last_time observed);
  checkb "an observed scheduler keeps nothing" true
    (match Scheduler.trace observed with
    | _ -> false
    | exception Invalid_argument _ -> true)

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
  Testutil.exec_traced ~pattern
    ~policy:(Policy.random (Rng.create 17))
    ~horizon:2_000
    ~procs:(echo_world ~daemon ~rounds)
    ()

let last_step_pid trace =
  List.fold_left
    (fun acc -> function Trace.Step { pid; _ } -> Some pid | Crash _ -> acc)
    None trace

let test_daemon_stops_at_last_client_step () =
  let served, served_trace = run_echo ~daemon:true ~rounds:5 () in
  let forever, forever_trace = run_echo ~daemon:false ~rounds:5 () in
  checkb "daemon run quiescent" true (served.outcome = Scheduler.Quiescent);
  checkb "plain run hits horizon" true (forever.outcome = Scheduler.Horizon);
  check
    Alcotest.(option int)
    "ends at the client's last step" (Some 0)
    (last_step_pid served_trace);
  checki "client made its 5 requests" 5
    (List.length
       (List.filter
          (function
            | Trace.Step { pid = 0; kind = Sim.Write _; _ } -> true
            | _ -> false)
          served_trace));
  let n = List.length served_trace in
  check Alcotest.string "a prefix of the plain run"
    (Format.asprintf "%a" Trace.pp served_trace)
    (Format.asprintf "%a" Trace.pp
       (List.filteri (fun i _ -> i < n) forever_trace))

let test_daemon_stops_at_last_client_crash () =
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (0, 10) ] in
  let result, trace = run_echo ~pattern ~daemon:true ~rounds:100 () in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  checki "no step at or after the crash" 9 result.steps;
  checki "the crash ends the run" 10 result.last_time;
  match List.rev trace with
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
  let result, trace =
    Testutil.exec_traced ~pattern ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ idle ]) ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  checki "no steps" 0 result.steps;
  checki "empty trace" 0 (List.length trace)

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

(* -- Policies ------------------------------------------------------------ *)

(* Five processes whose enabled set keeps changing: p1 finishes after 60
   steps, p3 after 150, p2 crashes at 40, p4 at 150, and p5 outlasts the
   300-step horizon. Returns the pid of every step, as digits. *)
let policy_choices policy =
  let pattern =
    Failure_pattern.make ~n_plus_1:5 ~crashes:[ (1, 40); (3, 150) ]
  in
  let forever () =
    while true do
      Sim.yield ()
    done
  in
  let procs = function
    | 0 -> [ nops 60 ]
    | 2 -> [ nops 120; nops 30 ]
    | 4 -> [ nops 500 ]
    | _ -> [ forever ]
  in
  let chosen = Buffer.create 300 in
  let observe = function
    | Trace.Step { pid; _ } -> Buffer.add_string chosen (string_of_int pid)
    | Trace.Crash _ -> ()
  in
  ignore
    (Run.exec ~pattern ~policy ~horizon:300 ~observers:[ observe ] ~procs ());
  Buffer.contents chosen

(* Each policy's first 300 choices on that world, recorded when
   [Policy.t] received the enabled set as an ascending pid list: the
   set-valued policies must choose exactly as the list-valued ones did. *)
let pinned_choices =
  [
    ( "round_robin",
      (fun () -> Policy.round_robin ()),
      "012340123401234012340123401234012340123402340234023402340234023402340234023402340234023402340234023402340234023402340234023402340234023402340234023402402402402402402402402402402402402402402402402402402402402402402402402402424242424242424242424242424242424242424242424242424242424242424242424242424242"
    );
    ( "random",
      (fun () -> Policy.random (Rng.create 17)),
      "024340141143104124001311004143203043332200040343343204300443342430424244424333444324244203323424324220323322230024042320240023204442244400324444404422040024444422440404040444400004202420422204444424022042202444202444222442022420040024020420402002040222242444424224442224444422244444224242422222224442"
    );
    ( "weighted",
      (fun () ->
        Policy.weighted (Rng.create 5) ~weights:[ (0, 3); (2, 2); (4, 5) ]),
      "413014340444004440301044321442303243404034443440004404420404004004442444040204304304404422444244404004004430000244444044402004240004404244000022004024444240042244422244040424440444240022024200224444444444444444442244444442244424422224442224444424424442442444444244422444444444424424442244442442224242"
    );
    ( "script then round_robin",
      (fun () ->
        Policy.script
          [ 4; 4; 1; 3; 3; 0; 2; 1; 1; 4; 0; 0 ]
          ~then_:(Policy.round_robin ())),
      "441330211400012340123401234012340123401234023402340234023402340234023402340234023402340234023402340234023402340234023402340234023402340234023402340234024024024024024024024024024024024024024024024024024024024024024024024024242424242424242424242424242424242424242424242424242424242424242424242424242424"
    );
    ( "fair_after",
      (fun () -> Policy.fair_after ~gst:120 (Policy.random (Rng.create 23))),
      "102232122034130333001421423200030311333224333320200422200202344324042302204023032204243003003023000043030300304032320200234023402340234023402340234024024024024024024024024024024024024024024024242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424"
    );
  ]

let test_policy_choices_pinned () =
  List.iter
    (fun (name, make, expected) ->
      check Alcotest.string name expected (policy_choices (make ())))
    pinned_choices

(* Minor words per step of a round-robin run of [n_plus_1] processes
   that only yield: the scheduler's own cost per step. *)
let yield_words_per_step ~n_plus_1 =
  let steps = 100_000 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let forever () =
    while true do
      Sim.yield ()
    done
  in
  let run () =
    Run.exec ~pattern ~policy:(Policy.round_robin ()) ~horizon:steps
      ~procs:(fun _ -> [ forever ])
      ()
  in
  (* the first run registers this domain's per-pid step counters *)
  ignore (run ());
  let before = Gc.minor_words () in
  let result = run () in
  let words = Gc.minor_words () -. before in
  checki "every step taken" steps result.Run.steps;
  words /. float_of_int steps

(* A step builds no enabled list and no closure, so its cost does not
   grow with the system: 70 words at n+1 = 3 and 110 at n+1 = 8 when
   [enabled] was a list. It is the effect round trip and nothing else:
   18 words, against 28 when a step also built a trace event nobody
   observed, a [`Stepped] value and the policy's [Some pid]; the bound
   is 18 + 10%, rounded up. *)
let test_step_allocation_bound () =
  let w3 = yield_words_per_step ~n_plus_1:3 in
  let w8 = yield_words_per_step ~n_plus_1:8 in
  checkb (Printf.sprintf "n+1 = 3: %.1f words/step <= 20" w3) true (w3 <= 20.0);
  checkb
    (Printf.sprintf "n+1 = 8: %.1f words/step within 2 of n+1 = 3's %.1f" w8 w3)
    true
    (Float.abs (w8 -. w3) <= 2.0)

(* -- Published counters --------------------------------------------- *)

let kind_label = function
  | Sim.Read _ -> "read"
  | Sim.Write _ -> "write"
  | Sim.Query _ -> "query"
  | Sim.Output _ -> "output"
  | Sim.Input _ -> "input"
  | Sim.Nop -> "nop"
  | Sim.Send _ -> "send"
  | Sim.Recv _ -> "recv"

(* The scheduler's counters in the registry against the counts of
   [steps] (pid, kind), the steps its trace holds plus any step whose
   fiber raised; [decisions] policy calls; [pending] fibers suspended
   at an atomic when the run ended. *)
let check_published ~label ~n_plus_1 ~steps ~decisions ~pending =
  let snap = Obs.Metrics.snapshot () in
  let got name = Testutil.counter snap name in
  let count p = List.length (List.filter p steps) in
  checki (label ^ ": steps") (List.length steps) (got "kernel.scheduler.steps");
  checki (label ^ ": policy decisions") decisions
    (got "kernel.scheduler.policy_decisions");
  checki (label ^ ": suspensions") (List.length steps + pending)
    (got "kernel.fiber.suspensions");
  List.iter
    (fun p ->
      checki
        (Printf.sprintf "%s: steps of %s" label (Pid.to_string p))
        (count (fun (q, _) -> q = p))
        (got (Printf.sprintf "kernel.scheduler.steps{pid=%s}" (Pid.to_string p))))
    (Pid.all ~n_plus_1);
  List.iter
    (fun k ->
      checki
        (Printf.sprintf "%s: %s steps" label k)
        (count (fun (_, kind) -> kind_label kind = k))
        (got (Printf.sprintf "kernel.scheduler.steps{kind=%s}" k)))
    [ "read"; "write"; "query"; "output"; "input"; "nop"; "send"; "recv" ];
  let queries d =
    count (function _, Sim.Query { detector } -> detector = d | _ -> false)
  in
  checki (label ^ ": queries") (queries "alpha" + queries "beta")
    (got "detectors.queries");
  List.iter
    (fun d ->
      checki
        (Printf.sprintf "%s: queries of %s" label d)
        (queries d)
        (got (Printf.sprintf "detectors.queries{detector=%s}" d)))
    [ "alpha"; "beta" ]

let trace_steps trace =
  List.filter_map
    (function Trace.Step { pid; kind; _ } -> Some (pid, kind) | _ -> None)
    trace

let pending_fibers fibers =
  List.length (List.filter (fun f -> Fiber.status f <> Fiber.Done) fibers)

let detector_source name =
  Sim.source ~name ~sample:(fun p t -> (p + t) mod 3) ~render:string_of_int
    ~equal:Int.equal ~id:(Type.Id.make ())

(* Each process reads, writes, queries the two detectors in
   alternation and outputs, [rounds] times ([None]: forever). *)
let counted_fibers ~n_plus_1 ~rounds =
  let alpha = detector_source "alpha" and beta = detector_source "beta" in
  let reg = Memory.Register.create ~name:"x" 0 in
  List.map
    (fun pid ->
      Fiber.create ~pid ~name:"t" (fun () ->
          let i = ref 0 in
          while match rounds with Some r -> !i < r | None -> true do
            incr i;
            Memory.Register.write reg (Memory.Register.read reg + 1);
            ignore (Sim.query alpha);
            ignore (Sim.query beta);
            ignore (Sim.query alpha);
            Sim.output ~label:"i" ~value:(string_of_int !i)
          done))
    (Pid.all ~n_plus_1)

(* One run on a fresh registry, its trace kept by [Trace.record]. *)
let published_run ~label ~pattern ~policy ~rounds ~max_steps ~expect =
  Obs.Metrics.reset ();
  let n_plus_1 = Failure_pattern.n_plus_1 pattern in
  let fibers = counted_fibers ~n_plus_1 ~rounds in
  let b = Trace.builder () in
  let s =
    Scheduler.observed ~observe:(Trace.record b) ~pattern ~policy ~fibers ()
  in
  let outcome = Scheduler.run s ~max_steps in
  checkb (label ^ ": outcome") true (outcome = expect);
  let steps = trace_steps (Trace.finish b) in
  check_published ~label ~n_plus_1 ~steps
    ~decisions:
      (List.length steps + if outcome = Scheduler.Policy_stop then 1 else 0)
    ~pending:(pending_fibers fibers)

let test_counters_match_trace () =
  let free = Failure_pattern.no_failures ~n_plus_1:3 in
  published_run ~label:"horizon" ~pattern:free
    ~policy:(Policy.random (Rng.create 5))
    ~rounds:None ~max_steps:700 ~expect:Scheduler.Horizon;
  published_run ~label:"quiescent" ~pattern:free
    ~policy:(Policy.round_robin ()) ~rounds:(Some 20) ~max_steps:10_000
    ~expect:Scheduler.Quiescent;
  published_run ~label:"policy stop" ~pattern:free
    ~policy:(Policy.stop_after 123 (Policy.random (Rng.create 6)))
    ~rounds:None ~max_steps:10_000 ~expect:Scheduler.Policy_stop;
  published_run ~label:"crashes"
    ~pattern:(Failure_pattern.make ~n_plus_1:4 ~crashes:[ (1, 37); (3, 0) ])
    ~policy:(Policy.random (Rng.create 7))
    ~rounds:(Some 30) ~max_steps:10_000 ~expect:Scheduler.Quiescent

(* Driven one [Scheduler.step] at a time, as the adversary drives it:
   every step's counts are in the registry when [step] returns. *)
let test_counters_published_per_step () =
  Obs.Metrics.reset ();
  let pattern = Failure_pattern.make ~n_plus_1:3 ~crashes:[ (2, 50) ] in
  let fibers = counted_fibers ~n_plus_1:3 ~rounds:(Some 8) in
  let b = Trace.builder () in
  let s =
    Scheduler.observed ~observe:(Trace.record b) ~pattern
      ~policy:(Policy.random (Rng.create 8)) ~fibers ()
  in
  let rec go () =
    match Scheduler.step s with
    | `Stepped _ ->
        let steps = trace_steps (Trace.finish b) in
        check_published
          ~label:(Printf.sprintf "step %d" (Scheduler.now s))
          ~n_plus_1:3 ~steps ~decisions:(List.length steps)
          ~pending:(pending_fibers fibers);
        go ()
    | `Stopped outcome -> outcome
  in
  checkb "quiescent" true (go () = Scheduler.Quiescent)

(* A fiber's exception escapes [run]: the steps before it, and the step
   it raised in, are published all the same. *)
let test_counters_published_on_raise () =
  Obs.Metrics.reset ();
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  let raiser =
    Fiber.create ~pid:2 ~name:"raiser" (fun () ->
        for _ = 1 to 5 do
          Sim.yield ()
        done;
        raise Exit)
  in
  let fibers = raiser :: counted_fibers ~n_plus_1:2 ~rounds:None in
  let b = Trace.builder () in
  let s =
    Scheduler.observed ~observe:(Trace.record b) ~pattern
      ~policy:(Policy.round_robin ()) ~fibers ()
  in
  (match Scheduler.run s ~max_steps:1_000 with
  | _ -> Alcotest.fail "the fiber's exception should escape"
  | exception Exit -> ());
  let steps = trace_steps (Trace.finish b) @ [ (2, Sim.Nop) ] in
  checki "the raising step took its tick" (List.length steps) (Scheduler.now s);
  check_published ~label:"raise" ~n_plus_1:3 ~steps
    ~decisions:(List.length steps) ~pending:(pending_fibers fibers)

(* The scheduler keeps the enabled set as fibers finish and crash; at
   every policy call it must be exactly the processes with a runnable
   fiber, as [Scheduler.pending] finds them by scanning. *)
let enabled_set_is_kept seed =
  let rng = Rng.create seed in
  let n_plus_1 = 2 + (seed mod 6) in
  let pattern =
    Failure_pattern.random rng ~n_plus_1 ~max_faulty:(n_plus_1 - 1) ~latest:80
  in
  let fibers =
    Run.fibers ~pattern ~procs:(fun _ ->
        List.init (1 + Rng.int rng 3) (fun _ -> nops (Rng.int rng 40)))
  in
  let sched = ref None and agreed = ref true and inner = Policy.random rng in
  let policy ~now ~enabled =
    (match !sched with
    | Some s ->
        let scanned = Pid.Set.of_list (List.map fst (Scheduler.pending s)) in
        if not (Pid.Set.equal enabled scanned) then agreed := false
    | None -> ());
    inner ~now ~enabled
  in
  let s = Scheduler.observed ~pattern ~policy ~fibers () in
  sched := Some s;
  ignore (Scheduler.run s ~max_steps:1_000 : Scheduler.outcome);
  !agreed

(* [Pid.Set] against [Set.Make (Int)] on pids 0 .. 62. *)
module Ref = Set.Make (Int)

let pid_set_agrees_with_stdlib (xs, ys, x) =
  let a = Pid.Set.of_list xs and b = Pid.Set.of_list ys in
  let ra = Ref.of_list xs and rb = Ref.of_list ys in
  let same s r = Pid.Set.elements s = Ref.elements r in
  let raises f = match f () with v -> Some v | exception Not_found -> None in
  let sign c = Int.compare c 0 in
  let ge e = e >= x and le e = e <= x in
  let thirds e = e mod 3 = 0 in
  let halves e = if e mod 2 = 0 then Some (e / 2) else None in
  let to_string r =
    "{" ^ String.concat ", " (List.map Pid.to_string (Ref.elements r)) ^ "}"
  in
  let sl, sp, sr = Pid.Set.split x a and rl, rp, rr = Ref.split x ra in
  let pt, pf = Pid.Set.partition thirds a
  and qt, qf = Ref.partition thirds ra in
  same a ra
  && sign (Pid.Set.compare a b) = sign (Ref.compare ra rb)
  && sign (Pid.Set.compare b a) = sign (Ref.compare rb ra)
  && Pid.Set.equal a b = Ref.equal ra rb
  && Pid.Set.subset a b = Ref.subset ra rb
  && Pid.Set.subset b a = Ref.subset rb ra
  && Pid.Set.disjoint a b = Ref.disjoint ra rb
  && same (Pid.Set.union a b) (Ref.union ra rb)
  && same (Pid.Set.inter a b) (Ref.inter ra rb)
  && same (Pid.Set.diff a b) (Ref.diff ra rb)
  && same (Pid.Set.remove x a) (Ref.remove x ra)
  && Pid.Set.mem x a = Ref.mem x ra
  && raises (fun () -> Pid.Set.choose a) = raises (fun () -> Ref.choose ra)
  && Pid.Set.choose_opt a = Ref.choose_opt ra
  && raises (fun () -> Pid.Set.min_elt a) = raises (fun () -> Ref.min_elt ra)
  && raises (fun () -> Pid.Set.max_elt a) = raises (fun () -> Ref.max_elt ra)
  && Pid.Set.min_elt_opt a = Ref.min_elt_opt ra
  && Pid.Set.max_elt_opt a = Ref.max_elt_opt ra
  && Pid.Set.fold List.cons a [] = Ref.fold List.cons ra []
  && (let seen = ref [] in
      Pid.Set.iter (fun e -> seen := e :: !seen) a;
      !seen = Ref.fold List.cons ra [])
  && same sl rl && sp = rp && same sr rr
  && raises (fun () -> Pid.Set.find_first ge a)
     = raises (fun () -> Ref.find_first ge ra)
  && Pid.Set.find_first_opt ge a = Ref.find_first_opt ge ra
  && raises (fun () -> Pid.Set.find_last le a)
     = raises (fun () -> Ref.find_last le ra)
  && Pid.Set.find_last_opt le a = Ref.find_last_opt le ra
  && List.of_seq (Pid.Set.to_seq_from x a) = List.of_seq (Ref.to_seq_from x ra)
  && List.of_seq (Pid.Set.to_seq a) = List.of_seq (Ref.to_seq ra)
  && List.of_seq (Pid.Set.to_rev_seq a) = List.of_seq (Ref.to_rev_seq ra)
  && same pt qt && same pf qf
  && same (Pid.Set.filter thirds a) (Ref.filter thirds ra)
  && same (Pid.Set.filter_map halves a) (Ref.filter_map halves ra)
  && Pid.Set.for_all thirds a = Ref.for_all thirds ra
  && Pid.Set.exists thirds a = Ref.exists thirds ra
  && Pid.Set.cardinal a = Ref.cardinal ra
  && Pid.Set.to_string a = to_string ra
  && same (Pid.Set.from x a) (Ref.filter ge ra)
  && List.for_all
       (fun i -> Pid.Set.nth a i = List.nth (Ref.elements ra) i)
       (List.init (Ref.cardinal ra) Fun.id)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:1000 ~name:"Pid.Set agrees with Set.Make (Int)"
      (triple
         (small_list (int_range 0 62))
         (small_list (int_range 0 62))
         (int_range (-1) 63))
      pid_set_agrees_with_stdlib;
    Test.make ~count:200 ~name:"the kept enabled set is the runnable processes"
      small_nat enabled_set_is_kept;
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
        let _, trace =
          Testutil.exec_traced ~pattern
            ~policy:(Policy.round_robin ())
            ~horizon:300
            ~procs:(fun _ -> [ nops 60 ])
            ()
        in
        Oracle.check_run_conditions pattern trace = []);
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
    Alcotest.test_case "pid subsets keep mask order" `Quick
      test_pid_subsets_mask_order;
    Alcotest.test_case "pid cap is 63 processes" `Quick test_pid_cap;
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
    Alcotest.test_case "a crash after the last step ends the run" `Quick
      test_crash_after_last_step_ends_run;
    Alcotest.test_case "observer sees the retained trace" `Quick
      test_observer_sees_retained_trace;
    Alcotest.test_case "daemon run stops at the last client step" `Quick
      test_daemon_stops_at_last_client_step;
    Alcotest.test_case "daemon run stops at the last client crash" `Quick
      test_daemon_stops_at_last_client_crash;
    Alcotest.test_case "daemon-only world takes no step" `Quick
      test_only_daemons_take_no_step;
    Alcotest.test_case "late Sim.daemon rejected" `Quick
      test_late_daemon_rejected;
    Alcotest.test_case "policy choices pinned" `Quick
      test_policy_choices_pinned;
    Alcotest.test_case "a step allocates at most 20 words" `Quick
      test_step_allocation_bound;
    Alcotest.test_case "rng uniform at a bound past 2^61" `Quick
      test_rng_uniform_large_bound;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
  @ [
      Alcotest.test_case "published counters match the trace" `Quick
        test_counters_match_trace;
      Alcotest.test_case "step publishes its counts" `Quick
        test_counters_published_per_step;
      Alcotest.test_case "counts published when a fiber raises" `Quick
        test_counters_published_on_raise;
    ]
