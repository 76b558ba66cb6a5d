(* Differential test of the Wing–Gong linearizability checker against a
   brute-force oracle.

   The oracle implements the definition directly: a history is
   linearizable iff some subset of the pending operations can be chosen
   to take effect such that some total order of (completed ∪ chosen)
   extends real-time precedence and replays through the sequential spec
   reproducing every completed operation's recorded result. At the
   generated sizes (≤ 4 operations) that is at most 2⁴ subsets × 4!
   permutations per history — small enough to enumerate, independent
   enough to catch a bug in the recursive search, its memoization, or
   its pending-operation handling. Disagreements shrink via QCheck and
   print both verdicts. *)

open Check

let reg_spec = Histories.register_spec ~init:0

(* -- brute-force oracle ------------------------------------------------ *)

let rec insertions x = function
  | [] -> [ [ x ] ]
  | y :: ys -> (x :: y :: ys) :: List.map (fun zs -> y :: zs) (insertions x ys)

let rec permutations = function
  | [] -> [ [] ]
  | x :: xs -> List.concat_map (insertions x) (permutations xs)

let rec subsets = function
  | [] -> [ [] ]
  | x :: xs ->
      let rest = subsets xs in
      rest @ List.map (fun s -> x :: s) rest

let responded_of (e : _ Lin.event) =
  match e.Lin.result with None -> max_int | Some _ -> e.Lin.responded

let respects_precedence order =
  let rec go = function
    | [] -> true
    | e :: later ->
        List.for_all
          (fun l -> not (responded_of l < e.Lin.invoked))
          later
        && go later
  in
  go order

let replays order =
  let rec go state = function
    | [] -> true
    | e :: rest -> (
        let state', res = reg_spec.Lin.apply state e.Lin.op in
        match e.Lin.result with
        | None -> go state' rest (* pending: result unconstrained *)
        | Some r -> reg_spec.Lin.equal_res r res && go state' rest)
  in
  go reg_spec.Lin.init order

let oracle events =
  let completed, pending =
    List.partition (fun e -> e.Lin.result <> None) events
  in
  List.exists
    (fun chosen ->
      List.exists
        (fun order -> respects_precedence order && replays order)
        (permutations (completed @ chosen)))
    (subsets pending)

(* -- history generator ------------------------------------------------- *)

(* Well-formed histories: ≤ 3 processes, ≤ 4 operations total, each
   process's operations sequential in real time, at most the last
   operation of a process pending. Results are generated (not derived),
   so both linearizable and non-linearizable histories are common. *)

type g_op = { g_pid : int; g_write : int option; g_res : int; g_gap : int; g_dur : int; g_pend : bool }

let op_gen =
  QCheck.Gen.(
    map2
      (fun (g_pid, g_write, g_res) (g_gap, g_dur, g_pend) ->
        { g_pid; g_write; g_res; g_gap; g_dur; g_pend })
      (triple (int_bound 2) (opt (int_range 1 3)) (int_bound 3))
      (triple (int_bound 2) (int_range 1 3) (frequency [ (4, return false); (1, return true) ])))

let history_of_ops ops =
  let clock = Array.make 3 0 in
  let seen_pending = Array.make 3 false in
  List.filter_map
    (fun o ->
      if seen_pending.(o.g_pid) then None
      else begin
        let invoked = clock.(o.g_pid) + o.g_gap in
        let responded = invoked + o.g_dur in
        clock.(o.g_pid) <- responded + 1;
        let op =
          match o.g_write with
          | Some v -> Histories.Reg_write v
          | None -> Histories.Reg_read
        in
        if o.g_pend then begin
          seen_pending.(o.g_pid) <- true;
          Some (Lin.pending ~op ~invoked ~pid:o.g_pid)
        end
        else
          let result =
            match o.g_write with
            | Some _ -> Histories.Reg_unit
            | None -> Histories.Reg_val o.g_res
          in
          Some (Lin.completed ~op ~result ~invoked ~responded ~pid:o.g_pid)
      end)
    ops

let show_event (e : _ Lin.event) =
  Printf.sprintf "p%d %s%s [%d,%s]" e.Lin.pid
    (reg_spec.Lin.show_op e.Lin.op)
    (match e.Lin.result with
    | None -> " pending"
    | Some r -> " -> " ^ reg_spec.Lin.show_res r)
    e.Lin.invoked
    (if e.Lin.result = None then "inf" else string_of_int e.Lin.responded)

let history_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; " (List.map show_event (history_of_ops ops)))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 4) op_gen)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:1000 ~name:"Wing–Gong agrees with brute-force oracle"
      history_arb
      (fun ops ->
        let events = history_of_ops ops in
        let checker = Lin.check reg_spec events = Ok () in
        let brute = oracle events in
        if checker <> brute then
          Test.fail_reportf
            "checker says %b, oracle says %b on:@.  %s" checker brute
            (String.concat "@.  " (List.map show_event events))
        else true);
  ]

(* Pin the oracle itself on known histories so a bug in the oracle
   cannot silently weaken the differential test. *)

let wr ?(pid = 0) v ~at =
  Lin.completed ~op:(Histories.Reg_write v) ~result:Histories.Reg_unit
    ~invoked:at ~responded:at ~pid

let rd ?(pid = 0) v ~invoked ~responded =
  Lin.completed ~op:Histories.Reg_read ~result:(Histories.Reg_val v) ~invoked
    ~responded ~pid

let test_oracle_pinned () =
  let checkb = Alcotest.check Alcotest.bool in
  checkb "sequential write;read" true
    (oracle [ wr 1 ~at:1; rd 1 ~invoked:2 ~responded:3 ]);
  checkb "stale read rejected" false
    (oracle [ wr 1 ~at:1; rd 0 ~invoked:2 ~responded:3 ]);
  checkb "overlapping read may see either value" true
    (oracle [ wr 5 ~at:2; rd 0 ~invoked:1 ~responded:3 ~pid:1 ]
    && oracle [ wr 5 ~at:2; rd 5 ~invoked:1 ~responded:3 ~pid:1 ]);
  checkb "new/old inversion rejected" false
    (oracle
       [
         wr 1 ~at:1;
         rd 1 ~invoked:2 ~responded:3 ~pid:1;
         rd 0 ~invoked:4 ~responded:5 ~pid:2;
       ]);
  checkb "pending write may explain a read" true
    (oracle
       [
         Lin.pending ~op:(Histories.Reg_write 9) ~invoked:1 ~pid:0;
         rd 9 ~invoked:2 ~responded:3 ~pid:1;
       ]);
  checkb "pending write may also never happen" true
    (oracle
       [
         Lin.pending ~op:(Histories.Reg_write 9) ~invoked:1 ~pid:0;
         rd 0 ~invoked:2 ~responded:3 ~pid:1;
       ])

(* -- seeded macro workload ----------------------------------------------- *)

(* 400 seeded register histories of 3 processes x 4 operations, shaped
   like the ones the scenarios record (per-process sequential
   operations, an occasional pending write): the number the checker
   accepts and the words it allocates are pinned, as are the DPOR
   goldens. *)
let seeded_histories () =
  let rng = Wfde.Rng.create 42 in
  List.init 400 (fun _ ->
      let events = ref [] in
      for pid = 0 to 2 do
        let t = ref (Wfde.Rng.int rng 3) in
        for _ = 1 to 4 do
          let dur = Wfde.Rng.int rng 4 in
          let invoked = !t and responded = !t + dur in
          t := responded + 1 + Wfde.Rng.int rng 3;
          let ev =
            if Wfde.Rng.int rng 3 = 0 then
              let v = Wfde.Rng.int rng 3 in
              if Wfde.Rng.int rng 8 = 0 then
                Lin.pending ~op:(Histories.Reg_write v) ~invoked ~pid
              else
                Lin.completed ~op:(Histories.Reg_write v)
                  ~result:Histories.Reg_unit ~invoked ~responded ~pid
            else
              Lin.completed ~op:Histories.Reg_read
                ~result:(Histories.Reg_val (Wfde.Rng.int rng 3))
                ~invoked ~responded ~pid
          in
          events := ev :: !events
        done
      done;
      List.rev !events)

let test_seeded_workload () =
  let ok, _, words =
    Testutil.measured (fun () ->
        List.length
          (List.filter
             (fun h -> Lin.check reg_spec h = Ok ())
             (seeded_histories ())))
  in
  Alcotest.check Alcotest.int "linearizable histories" 5 ok;
  Testutil.check_minor_words "lin/register histories 400x12"
    ~baseline:970_789 words

let suite =
  Alcotest.test_case "oracle pinned on known histories" `Quick
    test_oracle_pinned
  :: Alcotest.test_case "seeded 400-history workload pinned" `Quick
       test_seeded_workload
  :: List.map QCheck_alcotest.to_alcotest qcheck_cases
