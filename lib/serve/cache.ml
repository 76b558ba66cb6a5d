module J = Obs.Json

(* ---------------------------------------------------------- keys ----- *)

(* Bump when a payload renderer changes its bytes without a schema
   change — the fingerprint is folded into every key, so old entries
   (memory and disk) become unreachable instead of stale. *)
let cache_generation = 2 (* check payloads gained the "deduped" field *)
let disk_schema = "wfde-cache/1"

let fingerprint =
  String.concat "|"
    [
      disk_schema;
      string_of_int cache_generation;
      Proto.schema;
      "wfde-run/1";
      "wfde-sweep/1";
      Sys.ocaml_version;
    ]

let cacheable = function "run" | "check" | "sweep" -> true | _ -> false

(* Params that cannot change the payload, per method. [run] and
   [check] payloads are -j1/-jN byte-identical (the determinism
   contract test_cache's Zipf legs pin); [sweep] is NOT listed —
   wfde-sweep/1 embeds a "jobs" field, so jobs variants are distinct
   content. *)
let volatile_params = function "run" | "check" -> [ "jobs" ] | _ -> []

let rec canonical_json = function
  | J.Obj kvs ->
      (* first binding wins, matching J.member's read side *)
      let dedup =
        List.fold_left
          (fun acc (k, v) ->
            if List.mem_assoc k acc then acc else (k, v) :: acc)
          [] kvs
      in
      J.Obj
        (List.sort
           (fun (a, _) (b, _) -> String.compare a b)
           (List.rev_map (fun (k, v) -> (k, canonical_json v)) dedup))
  | J.List xs -> J.List (List.map canonical_json xs)
  | v -> v

let canonical ~meth ~params =
  let keep =
    List.filter (fun (k, _) -> not (List.mem k (volatile_params meth))) params
  in
  meth ^ "?" ^ J.to_string (canonical_json (J.Obj keep))

let key ~meth ~params =
  Digest.to_hex (Digest.string (fingerprint ^ "\n" ^ canonical ~meth ~params))

let is_key_name s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

(* ------------------------------------------------------- storage ----- *)

type config = { capacity : int; dir : string option }

let default_config = { capacity = 256; dir = None }
let disabled = { capacity = 0; dir = None }

(* LRU list: [head] is most recent, [tail] next to evict. *)
type node = {
  nkey : string;
  payload : string;
  mutable prev : node option;  (** toward head *)
  mutable next : node option;  (** toward tail *)
}

type slot =
  | Ready of node
  | Computing of (string, Proto.error) result Ivar.t

type t = {
  cfg : config;
  mu : Mutex.t;
  table : (string, slot) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable entries : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable evictions : int;
  mutable disk_hits : int;
  mutable disk_errors : int;
  mutable stores : int;
  mutable clears : int;
}

type ticket = { tkey : string; tiv : (string, Proto.error) result Ivar.t }

type outcome =
  | Hit of string
  | Disk_hit of string
  | Wait of (string, Proto.error) result Ivar.t
  | Compute of ticket

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(config = default_config) () =
  let config = { config with capacity = max 0 config.capacity } in
  (match config.dir with
  | Some dir when config.capacity > 0 -> mkdir_p dir
  | _ -> ());
  {
    cfg = config;
    mu = Mutex.create ();
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    entries = 0;
    bytes = 0;
    hits = 0;
    misses = 0;
    coalesced = 0;
    evictions = 0;
    disk_hits = 0;
    disk_errors = 0;
    stores = 0;
    clears = 0;
  }

let enabled t = t.cfg.capacity > 0
let config t = t.cfg

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ----------------------------------------------- LRU list (under mu) -- *)

let unlink_node t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  if t.head != Some n then begin
    unlink_node t n;
    push_front t n
  end

let drop_entry t n =
  unlink_node t n;
  Hashtbl.remove t.table n.nkey;
  t.entries <- t.entries - 1;
  t.bytes <- t.bytes - String.length n.payload

let evict_over_capacity t =
  while t.entries > t.cfg.capacity do
    match t.tail with
    | Some n ->
        drop_entry t n;
        t.evictions <- t.evictions + 1
    | None -> t.entries <- t.cfg.capacity (* unreachable *)
  done

let insert_ready t ~key ~payload =
  (match Hashtbl.find_opt t.table key with
  | Some (Ready old) -> drop_entry t old
  | Some (Computing _) | None -> ());
  let n = { nkey = key; payload; prev = None; next = None } in
  Hashtbl.replace t.table key (Ready n);
  push_front t n;
  t.entries <- t.entries + 1;
  t.bytes <- t.bytes + String.length payload;
  evict_over_capacity t

(* --------------------------------------------- disk store (under mu) -- *)

let entry_path dir key = Filename.concat dir key

let disk_header ~key ~bytes =
  J.to_string
    (J.Obj
       [
         ("schema", J.String disk_schema);
         ("fingerprint", J.String (Digest.to_hex (Digest.string fingerprint)));
         ("key", J.String key);
         ("bytes", J.Int bytes);
       ])

(* [`Payload p] on a clean read; [`Corrupt] on any parse/length/field
   mismatch (caller unlinks); [`Absent] when there is no file. *)
let read_disk_file path ~key =
  if not (Sys.file_exists path) then `Absent
  else
    match open_in_bin path with
    | exception Sys_error _ -> `Corrupt
    | ic -> (
        let parse () =
          let header = input_line ic in
          match J.of_string header with
          | Error _ -> `Corrupt
          | Ok doc -> (
              let str k = Option.bind (J.member k doc) J.to_str in
              let bytes = Option.bind (J.member "bytes" doc) J.to_int in
              match (str "schema", str "fingerprint", str "key", bytes) with
              | Some s, Some fp, Some k, Some n
                when s = disk_schema
                     && fp = Digest.to_hex (Digest.string fingerprint)
                     && k = key && n >= 0 ->
                  let remaining = in_channel_length ic - pos_in ic in
                  if remaining <> n then `Corrupt
                  else `Payload (really_input_string ic n)
              | _ -> `Corrupt)
        in
        match
          Fun.protect ~finally:(fun () -> close_in_noerr ic) parse
        with
        | v -> v
        | exception (End_of_file | Sys_error _) -> `Corrupt)

let read_disk t key =
  match t.cfg.dir with
  | None -> `Absent
  | Some dir -> (
      let path = entry_path dir key in
      match read_disk_file path ~key with
      | `Payload _ as p -> p
      | `Absent -> `Absent
      | `Corrupt ->
          (try Sys.remove path with Sys_error _ -> ());
          `Corrupt)

let write_disk t ~key ~payload =
  match t.cfg.dir with
  | None -> ()
  | Some dir -> (
      let tmp =
        Filename.concat dir
          (Printf.sprintf ".tmp-%s-%d" key (Unix.getpid ()))
      in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc
              (disk_header ~key ~bytes:(String.length payload));
            output_char oc '\n';
            output_string oc payload);
        Sys.rename tmp (entry_path dir key)
      with Sys_error _ | Unix.Unix_error _ ->
        t.disk_errors <- t.disk_errors + 1;
        (try Sys.remove tmp with Sys_error _ -> ()))

(* -------------------------------------------------- single-flight ----- *)

let lookup t ~key =
  if not (enabled t) then
    Compute { tkey = key; tiv = Ivar.create () }
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some (Ready n) ->
            touch t n;
            t.hits <- t.hits + 1;
            Hit n.payload
        | Some (Computing iv) ->
            t.coalesced <- t.coalesced + 1;
            Wait iv
        | None -> (
            match read_disk t key with
            | `Payload payload ->
                t.disk_hits <- t.disk_hits + 1;
                insert_ready t ~key ~payload;
                Disk_hit payload
            | (`Absent | `Corrupt) as r ->
                if r = `Corrupt then t.disk_errors <- t.disk_errors + 1;
                t.misses <- t.misses + 1;
                let tiv = Ivar.create () in
                Hashtbl.replace t.table key (Computing tiv);
                Compute { tkey = key; tiv }))

let resolve t ticket result =
  if enabled t then
    locked t (fun () ->
        match Hashtbl.find_opt t.table ticket.tkey with
        | Some (Computing iv) when iv == ticket.tiv -> (
            match result with
            | Ok payload ->
                insert_ready t ~key:ticket.tkey ~payload;
                t.stores <- t.stores + 1;
                write_disk t ~key:ticket.tkey ~payload
            | Error _ -> Hashtbl.remove t.table ticket.tkey)
        | _ -> () (* cleared (or superseded) while computing *));
  (* wake waiters last-and-always, even on a disabled cache *)
  Ivar.fill ticket.tiv result

(* ------------------------------------------------- stats / control ---- *)

type stats = {
  entries : int;
  bytes : int;
  capacity : int;
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  disk_hits : int;
  disk_errors : int;
  stores : int;
  clears : int;
}

let stats t =
  locked t (fun () ->
      {
        entries = t.entries;
        bytes = t.bytes;
        capacity = t.cfg.capacity;
        hits = t.hits;
        misses = t.misses;
        coalesced = t.coalesced;
        evictions = t.evictions;
        disk_hits = t.disk_hits;
        disk_errors = t.disk_errors;
        stores = t.stores;
        clears = t.clears;
      })

let stats_json t =
  let s = stats t in
  J.Obj
    [
      ("enabled", J.Bool (enabled t));
      ("capacity", J.Int s.capacity);
      ("entries", J.Int s.entries);
      ("bytes", J.Int s.bytes);
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("coalesced", J.Int s.coalesced);
      ("evictions", J.Int s.evictions);
      ("disk_hits", J.Int s.disk_hits);
      ("disk_errors", J.Int s.disk_errors);
      ("stores", J.Int s.stores);
      ("clears", J.Int s.clears);
      ( "dir",
        match t.cfg.dir with Some d -> J.String d | None -> J.Null );
    ]

let clear t =
  locked t (fun () ->
      (* keep Computing slots: their leaders re-publish fresh results *)
      let ready =
        Hashtbl.fold
          (fun _ slot acc ->
            match slot with Ready n -> n :: acc | Computing _ -> acc)
          t.table []
      in
      List.iter (drop_entry t) ready;
      (match t.cfg.dir with
      | Some dir when Sys.file_exists dir ->
          Array.iter
            (fun name ->
              if
                is_key_name name
                || String.length name >= 5 && String.sub name 0 5 = ".tmp-"
              then
                try Sys.remove (Filename.concat dir name)
                with Sys_error _ -> ())
            (Sys.readdir dir)
      | _ -> ());
      t.clears <- t.clears + 1)
