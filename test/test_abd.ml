(* Tests for the ABD message-passing register emulation: atomicity under
   concurrency and crashes, the quorum liveness boundary, and the
   linearizability checker itself (including a negative case). *)

open Kernel
open Memory

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Run clients ops over a fresh ABD object; every process runs its server
   fiber plus an optional client fiber. *)
let run_abd ?(horizon = 400_000) ~pattern ~policy ~clients n_plus_1 =
  let abd = Abd.create ~name:"abd" ~n_plus_1 ~init:0 in
  let result =
    Run.exec ~pattern ~policy ~horizon
      ~procs:(fun pid ->
        let client =
          match List.assoc_opt pid clients with
          | Some body -> [ (fun () -> body abd pid) ]
          | None -> []
        in
        Abd.server abd ~me:pid :: client)
      ()
  in
  (abd, result)

let test_write_then_read () =
  let n_plus_1 = 3 in
  let pattern = Failure_pattern.no_failures ~n_plus_1 in
  let observed = ref (-1) in
  let abd, _ =
    run_abd ~pattern
      ~policy:(Policy.round_robin ())
      ~clients:
        [
          ( 0,
            fun abd me ->
              Abd.write abd ~me ~key:"r" 42;
              observed := Abd.read abd ~me ~key:"r" );
        ]
      n_plus_1
  in
  checki "read own write" 42 !observed;
  checkb "log atomic" true (Abd.check_atomicity abd = Ok ());
  checki "two ops logged" 2 (List.length (Abd.oplog abd))

let test_quorum_size () =
  let abd3 = Abd.create ~name:"q3" ~n_plus_1:3 ~init:0 in
  let abd4 = Abd.create ~name:"q4" ~n_plus_1:4 ~init:0 in
  let abd5 = Abd.create ~name:"q5" ~n_plus_1:5 ~init:0 in
  checki "majority of 3" 2 (Abd.quorum abd3);
  checki "majority of 4" 3 (Abd.quorum abd4);
  checki "majority of 5" 3 (Abd.quorum abd5)

let test_concurrent_writers_atomic () =
  for seed = 1 to 40 do
    let n_plus_1 = 3 + (seed mod 3) in
    let rng = Rng.create (seed * 3) in
    let pattern = Failure_pattern.no_failures ~n_plus_1 in
    let body abd me =
      for i = 1 to 3 do
        Abd.write abd ~me ~key:"r" ((100 * (me + 1)) + i);
        ignore (Abd.read abd ~me ~key:"r")
      done
    in
    let clients = List.map (fun p -> (p, body)) (Pid.all ~n_plus_1) in
    let abd, result =
      run_abd ~pattern ~policy:(Policy.random rng) ~clients n_plus_1
    in
    checki "all ops completed" (n_plus_1 * 6) (List.length (Abd.oplog abd));
    checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
    match Abd.check_atomicity abd with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let test_atomic_with_minority_crashes () =
  for seed = 1 to 30 do
    let n_plus_1 = 5 in
    let rng = Rng.create (seed * 7) in
    (* at most 2 crashes: a majority of 3 survives *)
    let pattern =
      Failure_pattern.random rng ~n_plus_1 ~max_faulty:2 ~latest:500
    in
    let body abd me =
      for i = 1 to 2 do
        Abd.write abd ~me ~key:"r" ((1000 * (me + 1)) + i);
        ignore (Abd.read abd ~me ~key:"r")
      done
    in
    let clients = List.map (fun p -> (p, body)) (Pid.all ~n_plus_1) in
    let abd, _ =
      run_abd ~horizon:600_000 ~pattern ~policy:(Policy.random rng) ~clients
        n_plus_1
    in
    (* correct clients must have finished all their ops *)
    let completed p =
      List.length (List.filter (fun o -> o.Abd.pid = p) (Abd.oplog abd))
    in
    Pid.Set.iter
      (fun p -> checki "correct client done" 4 (completed p))
      (Failure_pattern.correct pattern);
    match Abd.check_atomicity abd with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let test_liveness_needs_majority () =
  (* 2 of 3 processes crash at t=0: the lone survivor's write can never
     reach a majority; the run must hit the horizon with the op logged
     incomplete — and safety (an empty/partial log) still checks. *)
  let n_plus_1 = 3 in
  let pattern = Failure_pattern.make ~n_plus_1 ~crashes:[ (0, 0); (1, 0) ] in
  let abd, result =
    run_abd ~horizon:20_000 ~pattern
      ~policy:(Policy.round_robin ())
      ~clients:[ (2, fun abd me -> Abd.write abd ~me ~key:"r" 9) ]
      n_plus_1
  in
  checkb "hit horizon (blocked)" true (result.outcome = Scheduler.Horizon);
  checki "no op completed" 0 (List.length (Abd.oplog abd));
  checkb "vacuously atomic" true (Abd.check_atomicity abd = Ok ())

let test_reader_sees_latest_completed_write () =
  (* Sequential: w(1) completes, then a read starts — it must return 1,
     never the initial 0. Checked across schedules via the oplog oracle
     plus a direct value assertion. *)
  for seed = 1 to 20 do
    let n_plus_1 = 3 in
    let rng = Rng.create (seed * 11) in
    let pattern = Failure_pattern.no_failures ~n_plus_1 in
    let wrote = ref false in
    let got = ref (-1) in
    let writer abd me =
      Abd.write abd ~me ~key:"r" 1;
      Sim.atomic Sim.Nop (fun _ -> wrote := true)
    in
    let reader abd me =
      (* wait (taking steps) until the write completed, then read *)
      let rec wait () =
        if Sim.atomic Sim.Nop (fun _ -> !wrote) then ()
        else wait ()
      in
      wait ();
      got := Abd.read abd ~me ~key:"r"
    in
    let abd, _ =
      run_abd ~pattern ~policy:(Policy.random rng)
        ~clients:[ (0, writer); (2, reader) ]
        n_plus_1
    in
    checki "read the completed write" 1 !got;
    checkb "atomic" true (Abd.check_atomicity abd = Ok ())
  done

let test_checker_catches_forged_inversion () =
  (* Feed the checker a hand-forged non-linearizable log: a write
     completes strictly before a read begins, yet the read carries an
     older tag. *)
  let abd = Abd.create ~name:"forge" ~n_plus_1:3 ~init:0 in
  let pattern = Failure_pattern.no_failures ~n_plus_1:3 in
  (* perform one real write so the log has the fresh tag *)
  let _ =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~horizon:50_000
      ~procs:(fun pid ->
        let client =
          if pid = 0 then [ (fun () -> Abd.write abd ~me:0 ~key:"r" 5) ] else []
        in
        Abd.server abd ~me:pid :: client)
      ()
  in
  match Abd.oplog abd with
  | [ w ] ->
      (* forge a stale read that begins after the write responded *)
      let forged_read =
        {
          Abd.kind = `Read;
          pid = 1;
          key = "r";
          tag = { Abd.seq = 0; writer = 0 };
          value = 0;
          invoked = w.Abd.responded + 10;
          responded = w.Abd.responded + 20;
        }
      in
      let abd2 = Abd.create ~name:"forge2" ~n_plus_1:3 ~init:0 in
      Abd.unsafe_append abd2 w;
      Abd.unsafe_append abd2 forged_read;
      checkb "stale read detected" true (Abd.check_atomicity abd2 <> Ok ())
  | _ -> Alcotest.fail "expected exactly one logged op"

(* ABD runs on a reliable [Link]: its mailbox steps are counted as
   sends and receives, and the only writes left are shared-memory
   ones — replica updates and the client's "abd.query" invocation
   marker, one per query phase. *)
let test_step_labels () =
  let module M = Obs.Metrics in
  M.reset ();
  let n_plus_1 = 5 in
  let rng = Rng.create 811 in
  let pattern =
    Failure_pattern.random rng ~n_plus_1 ~max_faulty:2 ~latest:400
  in
  let body abd me =
    for j = 1 to 2 do
      Abd.write abd ~me ~key:"r" ((100 * (me + 1)) + j);
      ignore (Abd.read abd ~me ~key:"r")
    done
  in
  let clients = List.map (fun p -> (p, body)) (Pid.all ~n_plus_1) in
  let _, result =
    run_abd ~pattern ~policy:(Policy.random rng) ~clients n_plus_1
  in
  let snap = M.snapshot () in
  let steps kind =
    Option.value ~default:0
      (M.find_counter snap ("kernel.scheduler.steps{kind=" ^ kind ^ "}"))
  in
  let count p =
    List.length
      (List.filter
         (function Trace.Step { kind; _ } -> p kind | Trace.Crash _ -> false)
         (Run.trace result))
  in
  let replica_writes =
    count (function
      | Sim.Write { obj } -> String.starts_with ~prefix:"abd.replica/" obj
      | _ -> false)
  in
  let query_phases =
    Option.value ~default:0 (M.find_counter snap "memory.abd.query_phases")
  in
  checkb "sends counted" true (steps "send" > 0);
  checkb "receives counted" true (steps "recv" > 0);
  checki "send steps" (count (function Sim.Send _ -> true | _ -> false))
    (steps "send");
  checki "recv steps" (count (function Sim.Recv _ -> true | _ -> false))
    (steps "recv");
  checkb "replicas written" true (replica_writes > 0);
  checki "writes are replica updates and query markers"
    (replica_writes + query_phases) (steps "write")

let suite =
  [
    Alcotest.test_case "write then read" `Quick test_write_then_read;
    Alcotest.test_case "quorum sizes" `Quick test_quorum_size;
    Alcotest.test_case "concurrent writers atomic" `Quick
      test_concurrent_writers_atomic;
    Alcotest.test_case "atomic with minority crashes" `Quick
      test_atomic_with_minority_crashes;
    Alcotest.test_case "liveness needs majority" `Quick
      test_liveness_needs_majority;
    Alcotest.test_case "reader sees completed write" `Quick
      test_reader_sees_latest_completed_write;
    Alcotest.test_case "checker catches forged inversion" `Quick
      test_checker_catches_forged_inversion;
    Alcotest.test_case "mailbox steps labelled send/recv" `Quick
      test_step_labels;
  ]
