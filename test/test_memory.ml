(* Tests for the shared-memory substrate: registers, the Afek et al.
   snapshot, native snapshot, consensus objects. *)

open Kernel
open Memory

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let failure_free n = Failure_pattern.no_failures ~n_plus_1:n

let run_procs ?(horizon = 100_000) ~n ~policy procs =
  Run.exec ~pattern:(failure_free n) ~policy ~horizon
    ~procs:(fun pid -> [ (fun () -> procs pid) ])
    ()

(* -- Registers ----------------------------------------------------------- *)

let test_register_read_write () =
  let r = Register.create ~name:"r" 0 in
  let seen = ref (-1) in
  let writer () = Register.write r 42 in
  let reader () =
    (* spin until the write is visible *)
    let rec loop () =
      let v = Register.read r in
      if v = 42 then seen := v else loop ()
    in
    loop ()
  in
  let result =
    Run.exec ~pattern:(failure_free 2)
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ (if pid = 0 then writer else reader) ])
      ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  checki "read observed write" 42 !seen

let test_register_each_op_is_one_step () =
  let r = Register.create ~name:"r" 0 in
  let body () =
    Register.write r 1;
    ignore (Register.read r);
    Register.write r 2
  in
  let result = run_procs ~n:1 ~policy:(Policy.round_robin ()) (fun _ -> body ()) in
  checki "three steps" 3 result.steps

let test_register_collect_not_atomic () =
  (* A collect interleaved with writes may see a mix of old and new —
     this is precisely why snapshots exist. We only check it takes
     [size] steps and sees each cell individually. *)
  let regs = Register.array ~name:"a" ~size:4 ~init:(fun i -> i) in
  let observed = ref [||] in
  let body () = observed := Register.collect regs in
  let result = run_procs ~n:1 ~policy:(Policy.round_robin ()) (fun _ -> body ()) in
  checki "four steps" 4 result.steps;
  Alcotest.check (Alcotest.array Alcotest.int) "initial values" [| 0; 1; 2; 3 |] !observed

let test_counter_monotone () =
  let c = Register.create ~name:"ts" 0 in
  let reads = ref [] in
  let writer () =
    for _ = 1 to 5 do
      Register.Counter.incr c
    done
  in
  let reader () =
    for _ = 1 to 10 do
      reads := Register.read c :: !reads
    done
  in
  let _result =
    Run.exec ~pattern:(failure_free 2)
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ (if pid = 0 then writer else reader) ])
      ()
  in
  let readings = List.rev !reads in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  checkb "counter readings monotone" true (monotone readings);
  checki "final value" 5 (Register.peek c)

(* -- Snapshot ------------------------------------------------------------ *)

let test_snapshot_sees_own_update () =
  let snap = Snapshot.create ~name:"s" ~size:3 ~init:(fun _ -> None) in
  let ok = ref false in
  let body () =
    Snapshot.update snap ~me:1 (Some 7);
    let view = Snapshot.scan snap in
    ok := view.(1) = Some 7
  in
  let pattern = failure_free 3 in
  let result =
    Run.exec ~pattern ~policy:(Policy.solo 1)
      ~procs:(fun pid -> [ (fun () -> if pid = 1 then body ()) ])
      ()
  in
  ignore result;
  checkb "own update visible" true !ok

let test_snapshot_containment_under_contention () =
  (* Many processes update and scan concurrently under a random scheduler;
     all version vectors collected must be pairwise containment-related —
     the linchpin of the paper's Theorem 6 proof. *)
  let n = 4 in
  let snap = Snapshot.create ~name:"s" ~size:n ~init:(fun _ -> None) in
  let views = ref [] in
  let body pid () =
    for round = 1 to 5 do
      Snapshot.update snap ~me:pid (Some (round * 10 + pid));
      let v = Snapshot.scan_versioned snap in
      views := Array.map snd v :: !views
    done
  in
  let rng = Rng.create 12345 in
  let result =
    Run.exec ~pattern:(failure_free n) ~policy:(Policy.random rng)
      ~horizon:200_000
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  let le a b = Array.for_all2 (fun x y -> x <= y) a b in
  let rec pairs = function
    | [] -> true
    | v :: rest ->
        List.for_all (fun w -> le v w || le w v) rest && pairs rest
  in
  checkb "all scans containment-related" true (pairs !views)

let test_snapshot_wait_free_under_adversary () =
  (* A scanner races two writers that never stop; the embedded-view
     borrowing must let the scan finish anyway. The adversary alternates
     writers between every scanner step. *)
  let n = 3 in
  let snap = Snapshot.create ~name:"s" ~size:n ~init:(fun _ -> None) in
  let scanned = ref false in
  let writer pid () =
    while true do
      Snapshot.update snap ~me:pid (Some pid)
    done
  in
  let scanner () =
    ignore (Snapshot.scan snap);
    scanned := true
  in
  (* interleave: writer0, writer1, scanner, writer0, writer1, scanner... *)
  let counter = ref 0 in
  let policy =
    Policy.custom (fun ~now:_ ~enabled ->
        incr counter;
        let want = [| 0; 1; 2 |].(!counter mod 3) in
        if Pid.Set.mem want enabled then Some want
        else Pid.Set.min_elt_opt enabled)
  in
  let _result =
    Run.exec ~pattern:(failure_free n) ~policy ~horizon:50_000
      ~procs:(fun pid -> [ (if pid = 2 then scanner else writer pid) ])
      ()
  in
  checkb "scan completed despite perpetual writers" true !scanned

let test_snapshot_versions_count_updates () =
  let snap = Snapshot.create ~name:"s" ~size:2 ~init:(fun _ -> 0) in
  let final = ref [||] in
  let body () =
    Snapshot.update snap ~me:0 1;
    Snapshot.update snap ~me:0 2;
    Snapshot.update snap ~me:0 3;
    final := Array.map snd (Snapshot.scan_versioned snap)
  in
  let _ = run_procs ~n:2 ~policy:(Policy.solo 0) (fun pid -> if pid = 0 then body ()) in
  Alcotest.check (Alcotest.array Alcotest.int) "versions" [| 3; 0 |] !final

(* -- Native snapshot ------------------------------------------------------ *)

let test_native_snapshot_single_step () =
  let snap = Native_snapshot.create ~name:"ns" ~size:3 ~init:(fun _ -> 0) in
  let body () =
    Native_snapshot.update snap ~me:0 5;
    ignore (Native_snapshot.scan snap)
  in
  let result = run_procs ~n:1 ~policy:(Policy.round_robin ()) (fun _ -> body ()) in
  checki "two steps total" 2 result.steps

(* One seeded run of three updaters and one scanner over both snapshot
   implementations under a random scheduler. The register-based scans
   meet interference (extra double collects, borrowed views), so every
   snapshot counter and the scan-round histogram move; their values are
   pinned exactly. *)
let test_snapshot_counters_pinned () =
  let n = 4 in
  let run () =
    let snap = Snapshot.create ~name:"s" ~size:n ~init:(fun _ -> None) in
    let native = Native_snapshot.create ~name:"ns" ~size:n ~init:(fun _ -> 0) in
    let body pid () =
      for round = 1 to 8 do
        if pid < 3 then begin
          Snapshot.update snap ~me:pid (Some round);
          Native_snapshot.update native ~me:pid round
        end
        else begin
          ignore (Snapshot.scan snap);
          ignore (Native_snapshot.scan native)
        end
      done
    in
    Run.exec ~pattern:(failure_free n)
      ~policy:(Policy.random (Rng.create 4242))
      ~horizon:200_000
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  let result, snap, _ = Testutil.measured run in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  List.iter
    (fun (name, want) -> checki name want (Testutil.counter snap name))
    [
      ("memory.snapshot.scans", 32);
      ("memory.snapshot.updates", 24);
      ("memory.snapshot.borrowed_views", 4);
      ("memory.native_snapshot.scans", 8);
      ("memory.native_snapshot.updates", 24);
    ];
  match Obs.Metrics.find_histogram snap "memory.snapshot.scan_rounds" with
  | None -> Alcotest.fail "no memory.snapshot.scan_rounds histogram"
  | Some hv ->
      checki "scan_rounds events" 32 hv.events;
      checki "scan_rounds sum" 54 (int_of_float hv.sum)

(* -- Consensus objects ---------------------------------------------------- *)

let test_consensus_first_wins () =
  let obj = Consensus_obj.create ~name:"c" ~ports:None in
  let results = Array.make 3 (-1) in
  let body pid () = results.(pid) <- Consensus_obj.propose obj (100 + pid) in
  let _ =
    Run.exec ~pattern:(failure_free 3)
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  checki "all agree" results.(0) results.(1);
  checki "all agree" results.(1) results.(2);
  checkb "decided a proposal" true (results.(0) >= 100 && results.(0) <= 102)

let test_consensus_port_limit () =
  let obj = Consensus_obj.create ~name:"c2" ~ports:(Some 2) in
  let blown = ref false in
  let body pid () =
    try ignore (Consensus_obj.propose obj pid)
    with Consensus_obj.Port_exhausted _ -> blown := true
  in
  let _ =
    Run.exec ~pattern:(failure_free 3)
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  checkb "third process rejected" true !blown;
  checki "two accessors" 2 (Pid.Set.cardinal (Consensus_obj.accessors obj))

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:40
      ~name:"snapshot containment holds for random schedules and sizes"
      small_nat
      (fun seed ->
        let rng = Rng.create (seed + 1) in
        let n = 2 + (seed mod 4) in
        let snap = Snapshot.create ~name:"s" ~size:n ~init:(fun _ -> None) in
        let views = ref [] in
        let body pid () =
          for round = 1 to 3 do
            Snapshot.update snap ~me:pid (Some round);
            views := Array.map snd (Snapshot.scan_versioned snap) :: !views
          done
        in
        let result =
          Run.exec
            ~pattern:(Failure_pattern.no_failures ~n_plus_1:n)
            ~policy:(Policy.random rng) ~horizon:100_000
            ~procs:(fun pid -> [ body pid ])
            ()
        in
        let le a b = Array.for_all2 (fun x y -> x <= y) a b in
        let rec pairs = function
          | [] -> true
          | v :: rest ->
              List.for_all (fun w -> le v w || le w v) rest && pairs rest
        in
        result.outcome = Scheduler.Quiescent && pairs !views);
    Test.make ~count:40
      ~name:"snapshot scan reflects every completed update (crashes allowed)"
      small_nat
      (fun seed ->
        let rng = Rng.create (seed + 1000) in
        let n = 3 in
        let pattern =
          Failure_pattern.random rng ~n_plus_1:n ~max_faulty:1 ~latest:30
        in
        let snap = Snapshot.create ~name:"s" ~size:n ~init:(fun _ -> None) in
        let last_scan = ref [||] in
        let body pid () =
          Snapshot.update snap ~me:pid (Some pid);
          last_scan := Snapshot.scan snap
        in
        let result =
          Run.exec ~pattern ~policy:(Policy.random rng) ~horizon:100_000
            ~procs:(fun pid -> [ body pid ])
            ()
        in
        ignore result;
        (* whoever scanned last must at least see its own value *)
        Array.length !last_scan = 0
        || Array.exists (fun v -> v <> None) !last_scan);
  ]

let suite =
  [
    Alcotest.test_case "register read/write" `Quick test_register_read_write;
    Alcotest.test_case "register ops are steps" `Quick
      test_register_each_op_is_one_step;
    Alcotest.test_case "collect is not atomic" `Quick
      test_register_collect_not_atomic;
    Alcotest.test_case "counter monotone" `Quick test_counter_monotone;
    Alcotest.test_case "snapshot sees own update" `Quick
      test_snapshot_sees_own_update;
    Alcotest.test_case "snapshot containment" `Quick
      test_snapshot_containment_under_contention;
    Alcotest.test_case "snapshot wait-free vs adversary" `Quick
      test_snapshot_wait_free_under_adversary;
    Alcotest.test_case "snapshot versions" `Quick
      test_snapshot_versions_count_updates;
    Alcotest.test_case "snapshot counters pinned" `Quick
      test_snapshot_counters_pinned;
    Alcotest.test_case "native snapshot single step" `Quick
      test_native_snapshot_single_step;
    Alcotest.test_case "consensus first wins" `Quick test_consensus_first_wins;
    Alcotest.test_case "consensus port limit" `Quick test_consensus_port_limit;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
