(* Tests for the content-addressed result cache: key canonicalization
   (QCheck battery — reorder invariance, jobs normalization, wire
   round-trip stability, distinct configs get distinct keys), LRU
   eviction order, single-flight coalescing, and the on-disk store
   (atomic write, restart hit, corrupt/truncated fallback, clear). *)

module J = Obs.Json
module C = Serve.Cache

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let eventually = Testutil.eventually
let temp_dir () = Testutil.temp_dir ~prefix:"wfde_cache_test" ()
let rm_rf = Testutil.rm_rf

(* Lead a key through the miss path and publish a payload for it. *)
let store t key payload =
  match C.lookup t ~key with
  | C.Compute ticket -> C.resolve t ticket (Ok payload)
  | _ -> Alcotest.failf "expected a computable miss for %s" key

let expect_hit t key expected =
  match C.lookup t ~key with
  | C.Hit p -> checks ("hit " ^ key) expected p
  | _ -> Alcotest.failf "expected a memory hit for %s" key

(* Assert a miss, then resolve the resulting ticket with an error so
   the in-flight slot is released without caching anything. *)
let expect_miss t key =
  match C.lookup t ~key with
  | C.Compute ticket ->
      C.resolve t ticket (Error (Serve.Proto.err Internal "test cleanup"))
  | _ -> Alcotest.failf "expected a miss for %s" key

(* -- keys -------------------------------------------------------------- *)

let test_key_shape () =
  let params = [ ("object", J.String "register"); ("depth", J.Int 3) ] in
  let k = C.key ~meth:"check" ~params in
  checki "32 chars" 32 (String.length k);
  checkb "lowercase hex" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k);
  (* the documented construction, verbatim *)
  checks "md5 of fingerprint + canonical" k
    (Digest.to_hex
       (Digest.string (C.fingerprint ^ "\n" ^ C.canonical ~meth:"check" ~params)));
  (* the fingerprint pins the wire schema so a schema bump invalidates *)
  checkb "fingerprint names the wire schema" true
    (let fp = C.fingerprint and s = Serve.Proto.schema in
     let n = String.length s and h = String.length fp in
     let rec go i = i + n <= h && (String.sub fp i n = s || go (i + 1)) in
     go 0)

let test_cacheable () =
  List.iter
    (fun m -> checkb (m ^ " cacheable") true (C.cacheable m))
    [ "run"; "check"; "sweep" ];
  List.iter
    (fun m -> checkb (m ^ " not cacheable") false (C.cacheable m))
    [ "sleep"; "health"; "metrics"; "cache"; "frob"; "" ]

let test_canonical_examples () =
  checks "keys sorted"
    {|check?{"depth":3,"horizon":60}|}
    (C.canonical ~meth:"check"
       ~params:[ ("horizon", J.Int 60); ("depth", J.Int 3) ]);
  checks "jobs dropped for check"
    {|check?{"depth":3}|}
    (C.canonical ~meth:"check"
       ~params:[ ("jobs", J.Int 4); ("depth", J.Int 3) ]);
  checks "jobs dropped for run"
    {|run?{"scale":2}|}
    (C.canonical ~meth:"run"
       ~params:[ ("scale", J.Int 2); ("jobs", J.Int 8) ]);
  checks "sweep keeps jobs"
    {|sweep?{"jobs":2,"scale":1}|}
    (C.canonical ~meth:"sweep"
       ~params:[ ("scale", J.Int 1); ("jobs", J.Int 2) ]);
  checks "duplicate keys reduce to the first binding"
    {|run?{"scale":2}|}
    (C.canonical ~meth:"run"
       ~params:[ ("scale", J.Int 2); ("scale", J.Int 9) ]);
  checks "nested objects sorted too"
    {|run?{"a":{"b":2,"z":1}}|}
    (C.canonical ~meth:"run"
       ~params:[ ("a", J.Obj [ ("z", J.Int 1); ("b", J.Int 2) ]) ])

(* -- LRU --------------------------------------------------------------- *)

let test_lru_eviction_order () =
  let t = C.create ~config:{ C.capacity = 2; dir = None } () in
  store t "k1" "v1";
  store t "k2" "v2";
  store t "k3" "v3";
  (* capacity 2: the oldest entry fell off the tail *)
  expect_miss t "k1";
  expect_hit t "k2" "v2";
  expect_hit t "k3" "v3";
  let s = C.stats t in
  checki "one eviction" 1 s.C.evictions;
  checki "two entries" 2 s.C.entries;
  checki "bytes tracked" 4 s.C.bytes

let test_lru_touch_order () =
  let t = C.create ~config:{ C.capacity = 2; dir = None } () in
  store t "k1" "v1";
  store t "k2" "v2";
  (* touching k1 moves it to the front, so k2 is now next to evict *)
  expect_hit t "k1" "v1";
  store t "k3" "v3";
  expect_miss t "k2";
  expect_hit t "k1" "v1";
  expect_hit t "k3" "v3";
  checki "one eviction" 1 (C.stats t).C.evictions

(* -- single flight ----------------------------------------------------- *)

let test_single_flight () =
  let t = C.create () in
  let k = C.key ~meth:"check" ~params:[ ("depth", J.Int 3) ] in
  let ticket =
    match C.lookup t ~key:k with
    | C.Compute ticket -> ticket
    | _ -> Alcotest.fail "leader must miss"
  in
  let results = Array.make 3 "" in
  let threads =
    Array.init 3 (fun i ->
        Thread.create
          (fun i ->
            match C.lookup t ~key:k with
            | C.Wait iv -> (
                match Serve.Ivar.read iv with
                | Ok p -> results.(i) <- p
                | Error _ -> ())
            | _ -> ())
          i)
  in
  (* all three followers must be parked on the leader's ivar before the
     leader publishes — sequenced on the cache's own counter *)
  eventually "three coalesced waiters" (fun () -> (C.stats t).C.coalesced = 3);
  C.resolve t ticket (Ok "the-bytes");
  Array.iter Thread.join threads;
  Array.iteri
    (fun i p -> checks (Printf.sprintf "waiter %d 's bytes" i) "the-bytes" p)
    results;
  let s = C.stats t in
  checki "exactly one miss" 1 s.C.misses;
  checki "exactly one store" 1 s.C.stores;
  checki "three coalesced" 3 s.C.coalesced;
  expect_hit t k "the-bytes"

let test_error_resolve_not_cached () =
  let t = C.create () in
  let k = C.key ~meth:"run" ~params:[] in
  let ticket =
    match C.lookup t ~key:k with
    | C.Compute ticket -> ticket
    | _ -> Alcotest.fail "leader must miss"
  in
  let got = ref "" in
  let waiter =
    Thread.create
      (fun () ->
        match C.lookup t ~key:k with
        | C.Wait iv -> (
            match Serve.Ivar.read iv with
            | Error e -> got := Serve.Proto.code_to_string e.Serve.Proto.code
            | Ok _ -> got := "unexpected ok")
        | _ -> got := "no wait")
      ()
  in
  eventually "waiter coalesced" (fun () -> (C.stats t).C.coalesced = 1);
  C.resolve t ticket (Error (Serve.Proto.err Internal "boom"));
  Thread.join waiter;
  checks "waiter woke with the error" "internal" !got;
  checki "nothing stored" 0 (C.stats t).C.entries;
  (* the slot is clear: the next lookup is a fresh computable miss *)
  expect_miss t k

let test_disabled_cache () =
  let t = C.create ~config:C.disabled () in
  checkb "disabled" true (not (C.enabled t));
  let k = C.key ~meth:"check" ~params:[] in
  (* every lookup computes; concurrent identical misses do not coalesce *)
  let t1 =
    match C.lookup t ~key:k with
    | C.Compute ticket -> ticket
    | _ -> Alcotest.fail "disabled lookup must compute"
  in
  (match C.lookup t ~key:k with
  | C.Compute _ -> ()
  | _ -> Alcotest.fail "disabled lookups never coalesce");
  C.resolve t t1 (Ok "x");
  (match C.lookup t ~key:k with
  | C.Compute _ -> ()
  | _ -> Alcotest.fail "disabled resolve must store nothing");
  let s = C.stats t in
  checki "no entries" 0 s.C.entries;
  checki "no stores" 0 s.C.stores;
  checki "no counters" 0 (s.C.hits + s.C.misses + s.C.coalesced)

(* -- disk store -------------------------------------------------------- *)

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> not (Sys.is_directory (Filename.concat dir f)))

let test_disk_roundtrip_and_restart () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { C.capacity = 8; dir = Some dir } in
  let a = C.create ~config:cfg () in
  let k = C.key ~meth:"check" ~params:[ ("depth", J.Int 3) ] in
  store a k "payload-bytes";
  (* the write was atomic: one file, named by the key, no temp litter *)
  (match entry_files dir with
  | [ f ] -> checks "file named by key" k f
  | fs -> Alcotest.failf "expected one entry file, found %d" (List.length fs));
  (* a fresh cache over the same dir — "the daemon restarted" — serves
     the same bytes from disk and promotes them into memory *)
  let b = C.create ~config:cfg () in
  (match C.lookup b ~key:k with
  | C.Disk_hit p -> checks "disk payload" "payload-bytes" p
  | _ -> Alcotest.fail "expected a disk hit after restart");
  checki "disk hit counted" 1 (C.stats b).C.disk_hits;
  expect_hit b k "payload-bytes";
  checki "promoted entry" 1 (C.stats b).C.entries

let test_disk_corrupt_and_truncated () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { C.capacity = 8; dir = Some dir } in
  let k = C.key ~meth:"check" ~params:[ ("depth", J.Int 4) ] in
  let path = Filename.concat dir k in
  let corrupt_with bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    (* a fresh cache must treat the damaged file as a miss, count the
       disk error, and unlink the file so it is not re-read *)
    let b = C.create ~config:cfg () in
    expect_miss b k;
    checki "disk error counted" 1 (C.stats b).C.disk_errors;
    checkb "damaged file unlinked" true (not (Sys.file_exists path))
  in
  (* truncated: valid header, payload cut short *)
  let whole =
    let a = C.create ~config:cfg () in
    store a k "payload-bytes";
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  corrupt_with (String.sub whole 0 (String.length whole - 4));
  (* garbage header *)
  corrupt_with "not json at all\nleftover";
  (* wrong key in an otherwise well-formed file: copy another entry *)
  let k2 = C.key ~meth:"check" ~params:[ ("depth", J.Int 5) ] in
  let a = C.create ~config:cfg () in
  store a k2 "other-bytes";
  let ic = open_in_bin (Filename.concat dir k2) in
  let other = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc other;
  close_out oc;
  let b = C.create ~config:cfg () in
  expect_miss b k;
  checkb "wrong-key file unlinked" true (not (Sys.file_exists path))

let test_disk_survives_eviction_and_clear () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { C.capacity = 1; dir = Some dir } in
  let t = C.create ~config:cfg () in
  let k1 = C.key ~meth:"check" ~params:[ ("depth", J.Int 3) ] in
  let k2 = C.key ~meth:"check" ~params:[ ("depth", J.Int 4) ] in
  store t k1 "v1";
  store t k2 "v2";
  (* k1 was evicted from memory but its file remains: a disk hit *)
  checki "evicted" 1 (C.stats t).C.evictions;
  (match C.lookup t ~key:k1 with
  | C.Disk_hit p -> checks "evicted entry re-read from disk" "v1" p
  | _ -> Alcotest.fail "expected disk hit for the evicted key");
  (* clear wipes memory, entry files, and stray temp files *)
  let stray = Filename.concat dir ".tmp-stray-999" in
  let oc = open_out stray in
  close_out oc;
  C.clear t;
  checki "memory cleared" 0 (C.stats t).C.entries;
  checki "clear counted" 1 (C.stats t).C.clears;
  checki "dir emptied" 0 (List.length (entry_files dir));
  checkb "stray temp removed" true (not (Sys.file_exists stray));
  expect_miss t k1;
  expect_miss t k2

let test_stats_json_shape () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = C.create ~config:{ C.capacity = 4; dir = Some dir } () in
  store t (C.key ~meth:"run" ~params:[]) "p";
  let doc = C.stats_json t in
  checkb "enabled" true (J.member "enabled" doc = Some (J.Bool true));
  checkb "capacity" true (J.member "capacity" doc = Some (J.Int 4));
  checkb "entries" true (J.member "entries" doc = Some (J.Int 1));
  checkb "dir" true (J.member "dir" doc = Some (J.String dir));
  List.iter
    (fun k -> checkb (k ^ " present") true (J.member k doc <> None))
    [
      "bytes"; "hits"; "misses"; "coalesced"; "evictions"; "disk_hits";
      "disk_errors"; "stores"; "clears";
    ]

(* -- Zipf legs against a daemon ----------------------------------------- *)

(* The Zipf-skewed repeated-request scenario, 150 requests per leg over
   the same global indices: an uncached reference leg, then against a
   caching daemon a cold-to-warm serial leg, a fully warm ("hot") leg,
   and a 4-client leg. Every leg returns all 150 payloads (30040 bytes)
   with no -j1/-j2 twin disagreeing; the cached legs return the
   uncached bytes; the warm leg computes exactly once per sampled class
   and the hot leg computes nothing. *)
let test_zipf_legs () =
  let seed = 11 and total = 150 in
  let with_daemon ~cache f =
    let socket = Testutil.temp_socket () in
    let d = Serve.Daemon.start ~workers:2 ~queue_capacity:16 ~cache ~socket () in
    Fun.protect ~finally:(fun () -> Serve.Daemon.stop d) @@ fun () ->
    f (fun name clients ->
        let l = Serve.Loadgen.run_zipf ~seed ~socket ~total ~clients () in
        checki (name ^ ": no errors") 0
          (l.Serve.Loadgen.errors + l.Serve.Loadgen.transport_errors);
        checki (name ^ ": no request missing") total l.Serve.Loadgen.ok;
        checki (name ^ ": payload bytes") 30040 l.Serve.Loadgen.payload_bytes;
        checki (name ^ ": class mismatches") 0
          (Serve.Loadgen.zipf_class_mismatches ~seed l);
        (l, Serve.Daemon.cache_stats d))
  in
  let uncached, _ = with_daemon ~cache:C.disabled (fun leg -> leg "uncached" 1) in
  with_daemon ~cache:C.default_config @@ fun leg ->
  let warm, after_warm = leg "warm" 1 in
  let hot, after_hot = leg "hot" 1 in
  let conc, _ = leg "x4" 4 in
  List.iter
    (fun (name, l) ->
      checki (name ^ ": payloads match uncached") 0
        (Serve.Loadgen.mismatches ~reference:uncached l))
    [ ("warm", warm); ("hot", hot); ("x4", conc) ];
  let classes = Serve.Loadgen.zipf_distinct_classes ~seed ~total in
  checki "sampled classes" 4 classes;
  checki "warm: one miss per class" classes after_warm.C.misses;
  checki "warm: hits" 146 after_warm.C.hits;
  checki "hot: no miss" 0 (after_hot.C.misses - after_warm.C.misses);
  checki "hot: all hits" 150 (after_hot.C.hits - after_warm.C.hits)

(* -- QCheck canonicalization battery ----------------------------------- *)

let name_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            "object"; "depth"; "horizon"; "jobs"; "experiments"; "scale";
            "seed"; "k"; "a b"; "";
          ];
        small_string ~gen:printable;
      ])

let json_gen =
  QCheck.Gen.(
    sized_size (int_bound 2)
      (fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun i -> J.Int i) small_signed_int;
                 (* quarters are exactly representable, so their wire
                    rendering round-trips to the same double *)
                 map (fun i -> J.Float (float_of_int i /. 4.)) small_signed_int;
                 map (fun s -> J.String s) (small_string ~gen:printable);
                 map (fun b -> J.Bool b) bool;
                 return J.Null;
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun xs -> J.List xs) (list_size (int_bound 3) (self (n - 1)));
                 map
                   (fun kvs -> J.Obj kvs)
                   (list_size (int_bound 3) (pair name_gen (self (n - 1))));
               ])))

let params_print ps = J.to_string (J.Obj ps)

let params_arb =
  QCheck.make ~print:params_print
    QCheck.Gen.(list_size (int_bound 5) (pair name_gen json_gen))

let meth_arb = QCheck.oneofl [ "run"; "check"; "sweep" ]

(* Reordering only commutes with first-binding dedup on duplicate-free
   param lists, so the reorder property dedups first. *)
let dedup_params ps =
  List.rev
    (List.fold_left
       (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
       [] ps)

(* A deterministic LCG shuffle: pure in (seed, list), no global RNG. *)
let shuffle seed xs =
  let a = Array.of_list xs in
  let st = ref ((seed * 2147001325) + 715136305) in
  let next m =
    st := ((!st * 2147001325) + 715136305) land max_int;
    !st mod m
  in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:300 ~name:"key invariant under param reorder"
      (triple meth_arb params_arb small_nat)
      (fun (meth, params, seed) ->
        let params = dedup_params params in
        C.key ~meth ~params = C.key ~meth ~params:(shuffle seed params));
    Test.make ~count:300 ~name:"run/check keys ignore jobs"
      (quad (oneofl [ "run"; "check" ]) params_arb small_nat small_nat)
      (fun (meth, params, j1, j2) ->
        let k = C.key ~meth ~params in
        k = C.key ~meth ~params:(("jobs", J.Int j1) :: params)
        && k = C.key ~meth ~params:(params @ [ ("jobs", J.Int j2) ]));
    Test.make ~count:300 ~name:"sweep keys distinguish jobs"
      (triple params_arb small_nat small_nat)
      (fun (params, j1, j2) ->
        assume (j1 <> j2);
        C.key ~meth:"sweep" ~params:(("jobs", J.Int j1) :: params)
        <> C.key ~meth:"sweep" ~params:(("jobs", J.Int j2) :: params));
    Test.make ~count:300 ~name:"key stable across a wire round-trip"
      (pair meth_arb params_arb)
      (fun (meth, params) ->
        match J.of_string (J.to_string (J.Obj params)) with
        | Ok (J.Obj kvs) -> C.key ~meth ~params:kvs = C.key ~meth ~params
        | _ -> false);
    Test.make ~count:300 ~name:"distinct check configs get distinct keys"
      (pair (pair small_nat small_nat) (pair small_nat small_nat))
      (fun ((d1, h1), (d2, h2)) ->
        assume ((d1, h1) <> (d2, h2));
        let p d h =
          [
            ("object", J.String "register");
            ("depth", J.Int d);
            ("horizon", J.Int h);
          ]
        in
        C.key ~meth:"check" ~params:(p d1 h1)
        <> C.key ~meth:"check" ~params:(p d2 h2));
  ]

let suite =
  [
    Alcotest.test_case "key: shape and construction" `Quick test_key_shape;
    Alcotest.test_case "key: cacheable methods" `Quick test_cacheable;
    Alcotest.test_case "key: canonicalization examples" `Quick
      test_canonical_examples;
    Alcotest.test_case "lru: eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru: hits refresh recency" `Quick test_lru_touch_order;
    Alcotest.test_case "single-flight: followers coalesce onto the leader"
      `Quick test_single_flight;
    Alcotest.test_case "single-flight: errors wake waiters, cache nothing"
      `Quick test_error_resolve_not_cached;
    Alcotest.test_case "disabled: compute-only, no coalescing, no storage"
      `Quick test_disabled_cache;
    Alcotest.test_case "disk: atomic write, restart hit, promotion" `Quick
      test_disk_roundtrip_and_restart;
    Alcotest.test_case "disk: corrupt/truncated entries fall back" `Quick
      test_disk_corrupt_and_truncated;
    Alcotest.test_case "disk: eviction keeps files, clear removes them" `Quick
      test_disk_survives_eviction_and_clear;
    Alcotest.test_case "stats: cache RPC payload shape" `Quick
      test_stats_json_shape;
    Alcotest.test_case "zipf: cold, warm, hot and x4 legs pinned" `Quick
      test_zipf_legs;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
