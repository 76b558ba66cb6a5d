(* The message layer: deterministic timers, the reliable default link
   (delivery, FIFO per sender, step accounting, dead letters),
   lossy/delayed links before GST, reliable timely links after it,
   crash isolation (incl. under DPOR reordering), and byte-identical
   replay. *)

open Kernel

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------- timers *)

let test_timer_basics () =
  let t = Timer.create () in
  checkb "fresh unarmed" false (Timer.armed t);
  checkb "fresh not expired" false (Timer.expired t ~now:100);
  Timer.arm t ~now:10 ~delay:5;
  checkb "armed" true (Timer.armed t);
  Alcotest.check
    (Alcotest.option Alcotest.int)
    "deadline" (Some 15) (Timer.deadline t);
  checkb "before deadline" false (Timer.expired t ~now:14);
  checkb "at deadline" true (Timer.expired t ~now:15);
  checkb "stays expired" true (Timer.expired t ~now:40);
  Timer.arm t ~now:40 ~delay:1;
  checkb "re-armed resets" false (Timer.expired t ~now:40);
  Timer.cancel t;
  checkb "cancelled" false (Timer.armed t);
  Alcotest.check_raises "negative delay" (Invalid_argument "Timer.arm: negative delay")
    (fun () -> Timer.arm t ~now:0 ~delay:(-1))

let test_periodic_reanchors () =
  let p = Timer.Periodic.create ~period:5 in
  checkb "due immediately" true (Timer.Periodic.due p ~now:0);
  checkb "not due twice at one instant" false (Timer.Periodic.due p ~now:0);
  checkb "not due early" false (Timer.Periodic.due p ~now:4);
  checkb "due at period" true (Timer.Periodic.due p ~now:5);
  (* a starved owner gets one tick on resume, not a burst *)
  checkb "due after starvation" true (Timer.Periodic.due p ~now:42);
  checkb "re-anchored to resume time" false (Timer.Periodic.due p ~now:44);
  checkb "peek has no side effect" true
    (Timer.Periodic.peek p ~now:47 && Timer.Periodic.due p ~now:47)

(* ------------------------------------------------------------- links *)

(* Drive [rounds] full round-robin rotations of: everyone polls, pid 0
   broadcasts a numbered message each rotation. Returns the link. *)
let run_broadcasters ?(n_plus_1 = 3) ?(pattern_crashes = []) ?policy ~config
    ~horizon () =
  let link = Link.create ~name:"l" ~n_plus_1 ~config () in
  let tick = Array.init n_plus_1 (fun _ -> Timer.Periodic.create ~period:3) in
  let body pid () =
    let rec loop () =
      let now, _ = Link.poll_now link ~me:pid in
      if Timer.Periodic.due tick.(pid) ~now then Link.broadcast link now;
      loop ()
    in
    loop ()
  in
  let pattern =
    if pattern_crashes = [] then Failure_pattern.no_failures ~n_plus_1
    else Failure_pattern.make ~n_plus_1 ~crashes:pattern_crashes
  in
  let policy =
    match policy with Some p -> p | None -> Policy.round_robin ()
  in
  let result, trace =
    Testutil.exec_traced ~pattern ~policy ~horizon
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  (link, result, trace)

let test_default_config_is_reliable () =
  let link, _, _ =
    run_broadcasters ~config:Link.default_config ~horizon:200 ()
  in
  checkb "contract" true (Link.check_partial_synchrony link = Ok ());
  List.iter
    (fun r ->
      checkb "nothing dropped" false (r.Link.sr_ready_at = -1);
      checkb "ready next step" true (r.Link.sr_ready_at = r.Link.sr_sent_at + 1))
    (Link.sends link)

let test_total_loss_before_gst () =
  let config =
    { Link.gst = 60; delta = 1; pre_delay = 0; loss_pct = 100; link_seed = 5 }
  in
  let link, _, _ = run_broadcasters ~config ~horizon:300 () in
  checkb "contract" true (Link.check_partial_synchrony link = Ok ());
  let pre, post =
    List.partition (fun r -> r.Link.sr_sent_at < 60) (Link.sends link)
  in
  checkb "has pre-GST sends" true (pre <> []);
  checkb "has post-GST sends" true (post <> []);
  List.iter
    (fun r -> checki "pre-GST all dropped" (-1) r.Link.sr_ready_at)
    pre;
  List.iter
    (fun r ->
      checkb "post-GST never dropped" true (r.Link.sr_ready_at <> -1);
      checkb "post-GST timely" true
        (r.Link.sr_ready_at <= r.Link.sr_sent_at + config.Link.delta))
    post

let test_pre_gst_delay_stashes () =
  let config =
    { Link.gst = 400; delta = 1; pre_delay = 40; loss_pct = 0; link_seed = 11 }
  in
  let link, _, _ = run_broadcasters ~config ~horizon:300 () in
  checkb "contract" true (Link.check_partial_synchrony link = Ok ());
  (* with max extra delay 40 some message must actually be delayed *)
  checkb "some message delayed" true
    (List.exists
       (fun r -> r.Link.sr_ready_at > r.Link.sr_sent_at + 1)
       (Link.sends link));
  (* and nothing was ever delivered before it was ready *)
  List.iter
    (fun r ->
      if r.Link.sr_delivered_at <> -1 then
        checkb "delivered >= ready" true
          (r.Link.sr_delivered_at >= r.Link.sr_ready_at))
    (Link.sends link)

let test_fair_delivery_after_gst () =
  let config =
    { Link.gst = 50; delta = 3; pre_delay = 10; loss_pct = 60; link_seed = 2 }
  in
  let link, result, _ = run_broadcasters ~config ~horizon:600 () in
  checkb "contract" true (Link.check_partial_synchrony link = Ok ());
  (* everyone polls every rotation: anything ready well before the end
     must have been delivered *)
  let last = result.Run.last_time in
  checki "no stale ready messages" 0
    (List.length (Link.undelivered_ready link ~by:(last - 30)))

let test_send_log_accounting () =
  let config =
    { Link.gst = 30; delta = 2; pre_delay = 6; loss_pct = 50; link_seed = 9 }
  in
  let link, _, _ = run_broadcasters ~n_plus_1:2 ~config ~horizon:200 () in
  let sends = Link.sends link in
  let dropped =
    List.length (List.filter (fun r -> r.Link.sr_ready_at = -1) sends)
  in
  let delivered =
    List.length (List.filter (fun r -> r.Link.sr_delivered_at <> -1) sends)
  in
  let in_flight = Link.in_flight link 0 + Link.in_flight link 1 in
  checki "sent = dropped + delivered + in flight" (List.length sends)
    (dropped + delivered + in_flight);
  checkb "chronological" true
    (let rec mono = function
       | a :: (b :: _ as rest) ->
           a.Link.sr_sent_at < b.Link.sr_sent_at && mono rest
       | _ -> true
     in
     mono sends)

let test_crashed_receiver_never_observes () =
  let config =
    { Link.gst = 0; delta = 1; pre_delay = 0; loss_pct = 0; link_seed = 1 }
  in
  let link, _, trace =
    run_broadcasters ~pattern_crashes:[ (1, 5) ] ~config ~horizon:300 ()
  in
  let pattern =
    Failure_pattern.make ~n_plus_1:3 ~crashes:[ (1, 5) ]
  in
  checkb "crash isolation" true
    (Link.check_crash_isolation link ~pattern = Ok ());
  checkb "crash recorded in trace" true
    (List.exists
       (function Trace.Crash { pid = 1; _ } -> true | _ -> false)
       trace)

(* ----------------------------------------------- the reliable link *)

(* [Link.default_config] is the reliable network ABD runs on: every
   message sent is delivered, oldest first per sender, to a receiver
   that keeps polling; send and poll are one step each; and a crashed
   receiver's messages stay in flight. *)

let reliable ~n_plus_1 =
  Link.create ~name:"n" ~n_plus_1 ~config:Link.default_config ()

let test_reliable_roundtrip () =
  let link = reliable ~n_plus_1:2 in
  let got = ref [] in
  let sender () =
    Link.send link ~to_:1 "hello";
    Link.send link ~to_:1 "world"
  in
  let receiver () =
    let rec loop () =
      got := !got @ Link.poll link ~me:1;
      if List.length !got < 2 then loop ()
    in
    loop ()
  in
  let result =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:2)
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ (if pid = 0 then sender else receiver) ])
      ()
  in
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "messages in order with sender" [ (0, "hello"); (0, "world") ] !got

let test_reliable_single_steps () =
  let link = reliable ~n_plus_1:1 in
  let body () =
    Link.send link ~to_:0 1;
    ignore (Link.poll link ~me:0)
  in
  let result =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1:1)
      ~policy:(Policy.round_robin ())
      ~procs:(fun _ -> [ body ])
      ()
  in
  checki "two steps" 2 result.steps

let test_reliable_broadcast () =
  let n_plus_1 = 4 in
  let link = reliable ~n_plus_1 in
  let received = Array.make n_plus_1 false in
  let body pid () =
    if pid = 0 then Link.broadcast link "ping";
    let rec loop () =
      if List.exists (fun (_, m) -> m = "ping") (Link.poll link ~me:pid) then
        received.(pid) <- true
      else loop ()
    in
    loop ()
  in
  let result =
    Run.exec
      ~pattern:(Failure_pattern.no_failures ~n_plus_1)
      ~policy:(Policy.random (Rng.create 3))
      ~horizon:10_000
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  checkb "all received (incl. self)" true (Array.for_all Fun.id received);
  checkb "quiescent" true (result.outcome = Scheduler.Quiescent)

let test_reliable_dead_letters () =
  let link = reliable ~n_plus_1:2 in
  let pattern = Failure_pattern.make ~n_plus_1:2 ~crashes:[ (1, 0) ] in
  let body pid () = if pid = 0 then Link.send link ~to_:1 "dead letter" in
  let _ =
    Run.exec ~pattern
      ~policy:(Policy.round_robin ())
      ~procs:(fun pid -> [ body pid ])
      ()
  in
  checki "still in flight at the dead mailbox" 1 (Link.in_flight link 1)

let qcheck_reliable_delivery =
  QCheck.Test.make ~count:40
    ~name:"network: fair schedules deliver every message to correct procs"
    QCheck.small_nat
    (fun seed ->
      let n_plus_1 = 3 in
      let rng = Rng.create (seed + 1) in
      let link = reliable ~n_plus_1 in
      let sent_per_receiver = 4 in
      let received = Array.make n_plus_1 0 in
      let body pid () =
        (* everyone sends to everyone, then drains forever *)
        List.iter
          (fun to_ ->
            for i = 1 to sent_per_receiver do
              Link.send link ~to_ ((pid * 100) + i)
            done)
          (Pid.all ~n_plus_1);
        while true do
          received.(pid) <-
            received.(pid) + List.length (Link.poll link ~me:pid)
        done
      in
      let _ =
        Run.exec
          ~pattern:(Failure_pattern.no_failures ~n_plus_1)
          ~policy:(Policy.random rng) ~horizon:20_000
          ~procs:(fun pid -> [ body pid ])
          ()
      in
      Array.for_all (fun c -> c = n_plus_1 * sent_per_receiver) received)

(* Registered as the "network" suite: the reliable network is
   [Link.default_config]. *)
let network_suite =
  [
    Alcotest.test_case "send/poll roundtrip, FIFO" `Quick
      test_reliable_roundtrip;
    Alcotest.test_case "send and poll are single steps" `Quick
      test_reliable_single_steps;
    Alcotest.test_case "broadcast reaches everyone" `Quick
      test_reliable_broadcast;
    Alcotest.test_case "dead letters stay queued" `Quick
      test_reliable_dead_letters;
    QCheck_alcotest.to_alcotest qcheck_reliable_delivery;
  ]

let test_config_string_round_trip () =
  let config =
    { Link.gst = 40; delta = 4; pre_delay = 8; loss_pct = 25; link_seed = 7 }
  in
  let s = Link.config_to_string config in
  Alcotest.check Alcotest.string "stable rendering"
    "gst=40,delta=4,pre_delay=8,loss=25,seed=7" s;
  (match Link.config_of_string s with
  | Ok c -> checkb "round trip" true (c = config)
  | Error e -> Alcotest.fail e);
  checkb "garbage rejected" true
    (Result.is_error (Link.config_of_string "gst=1,delta"));
  checkb "out of range rejected" true
    (Result.is_error
       (Link.config_of_string "gst=1,delta=0,pre_delay=0,loss=0,seed=1"))

(* --------------------------------------------- DPOR crash isolation *)

(* Under every DPOR-explored ordering: a receiver crashed at time 1 can
   never observe a send, on a reliable link and on a lossy one alike. *)
let test_dpor_crash_isolation () =
  let procs = 3 in
  let pattern = Failure_pattern.make ~n_plus_1:procs ~crashes:[ (2, 1) ] in
  let make () =
    let net =
      Link.create ~name:"n" ~n_plus_1:procs ~config:Link.default_config ()
    in
    let link =
      Link.create ~name:"l" ~n_plus_1:procs
        ~config:{ Link.gst = 8; delta = 1; pre_delay = 3; loss_pct = 40; link_seed = 4 }
        ()
    in
    let body pid () =
      Link.send net ~to_:2 pid;
      Link.send link ~to_:2 pid;
      ignore (Link.poll net ~me:pid);
      ignore (Link.poll link ~me:pid)
    in
    let check (_ : Run.result) =
      match Link.check_crash_isolation net ~pattern with
      | Error _ as e -> e
      | Ok () -> Link.check_crash_isolation link ~pattern
    in
    ((fun pid -> [ body pid ]), check)
  in
  let outcome =
    Check.Dpor.explore ~pattern ~depth:6 ~horizon:60 ~make ()
  in
  checkb "no execution violates isolation" true (outcome.counterexample = None);
  checkb "explored more than one schedule" true (outcome.stats.executions > 1)

(* ----------------------------------------------------------- qcheck *)

let gen_config =
  QCheck.Gen.(
    int_bound 80 >>= fun gst ->
    int_range 1 5 >>= fun delta ->
    int_bound 20 >>= fun pre_delay ->
    int_bound 100 >>= fun loss_pct ->
    int_range 1 10_000 >|= fun link_seed ->
    { Link.gst; delta; pre_delay; loss_pct; link_seed })

let pp_cfg cfg = Link.config_to_string cfg

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:60 ~name:"link: same config and schedule replay identically"
      (make ~print:pp_cfg gen_config)
      (fun config ->
        let run () =
          let link, _, trace = run_broadcasters ~config ~horizon:250 () in
          (Format.asprintf "%a" Trace.pp trace, Link.sends link)
        in
        let t1, s1 = run () and t2, s2 = run () in
        String.equal t1 t2
        && List.equal
             (fun a b ->
               a.Link.sr_from = b.Link.sr_from
               && a.Link.sr_to = b.Link.sr_to
               && a.Link.sr_sent_at = b.Link.sr_sent_at
               && a.Link.sr_ready_at = b.Link.sr_ready_at
               && a.Link.sr_delivered_at = b.Link.sr_delivered_at)
             s1 s2);
    Test.make ~count:60
      ~name:"link: GST monotonicity (post-GST sends timely, pre-GST bounded)"
      (make ~print:pp_cfg gen_config)
      (fun config ->
        let link, result, _ = run_broadcasters ~config ~horizon:400 () in
        let last = result.Run.last_time in
        Link.check_partial_synchrony link = Ok ()
        && List.for_all
             (fun r ->
               if r.Link.sr_sent_at >= config.Link.gst then
                 r.Link.sr_ready_at <> -1
                 && r.Link.sr_ready_at <= r.Link.sr_sent_at + config.Link.delta
               else
                 r.Link.sr_ready_at = -1
                 || r.Link.sr_ready_at
                    <= r.Link.sr_sent_at + 1 + config.Link.pre_delay)
             (Link.sends link)
        && Link.undelivered_ready link ~by:(last - 40) = []);
    Test.make ~count:40
      ~name:"link: crash isolation holds under random configs and crashes"
      (make
         ~print:(fun (c, t) -> Printf.sprintf "%s crash@%d" (pp_cfg c) t)
         QCheck.Gen.(pair gen_config (int_bound 60)))
      (fun (config, crash_at) ->
        let link, _, _ =
          run_broadcasters ~pattern_crashes:[ (1, crash_at) ] ~config
            ~horizon:300 ()
        in
        let pattern =
          Failure_pattern.make ~n_plus_1:3 ~crashes:[ (1, crash_at) ]
        in
        Link.check_crash_isolation link ~pattern = Ok ());
  ]

let suite =
  [
    Alcotest.test_case "timer basics" `Quick test_timer_basics;
    Alcotest.test_case "periodic re-anchors" `Quick test_periodic_reanchors;
    Alcotest.test_case "default config reliable" `Quick
      test_default_config_is_reliable;
    Alcotest.test_case "total loss before GST" `Quick test_total_loss_before_gst;
    Alcotest.test_case "pre-GST delay stashes" `Quick test_pre_gst_delay_stashes;
    Alcotest.test_case "fair delivery after GST" `Quick
      test_fair_delivery_after_gst;
    Alcotest.test_case "send-log accounting" `Quick test_send_log_accounting;
    Alcotest.test_case "crashed receiver never observes" `Quick
      test_crashed_receiver_never_observes;
    Alcotest.test_case "config string round-trip" `Quick
      test_config_string_round_trip;
    Alcotest.test_case "DPOR crash isolation" `Quick test_dpor_crash_isolation;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
