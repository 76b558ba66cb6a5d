type t =
  | Abd_skip_write_back
  | Snapshot_single_collect
  | Converge_drop_phase2
  | Hb_timeout_never_increased
  | Hb_suspected_not_restored

let all =
  [
    Abd_skip_write_back;
    Snapshot_single_collect;
    Converge_drop_phase2;
    Hb_timeout_never_increased;
    Hb_suspected_not_restored;
  ]

let to_string = function
  | Abd_skip_write_back -> "abd-skip-write-back"
  | Snapshot_single_collect -> "snapshot-single-collect"
  | Converge_drop_phase2 -> "converge-drop-phase2"
  | Hb_timeout_never_increased -> "hb-timeout-never-increased"
  | Hb_suspected_not_restored -> "hb-suspected-not-restored"

let of_string s =
  match List.find_opt (fun m -> String.equal (to_string m) s) all with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown mutant %S (expected one of: %s)" s
           (String.concat ", " (List.map to_string all)))

let flag = function
  | Abd_skip_write_back -> Memory.Abd.chaos_skip_write_back
  | Snapshot_single_collect -> Memory.Snapshot.chaos_single_collect
  | Converge_drop_phase2 -> Converge.chaos_drop_phase2
  | Hb_timeout_never_increased -> Detectors.Heartbeat.chaos_timeout_never_increased
  | Hb_suspected_not_restored -> Detectors.Heartbeat.chaos_suspected_not_restored

(* The flags are process-global, but scopes overlap: the serve daemon
   runs concurrent [check] requests on its worker domains, and each
   wraps its exploration in [with_]. A plain save/restore would let the
   first scope to finish switch the flags off under a scope still
   running, silently turning a mutant check into a clean one midway.
   Instead, scopes with the {e same} configuration share one activation
   via a refcount, and a scope with a different configuration waits its
   turn. *)
let mu = Mutex.create ()
let cv = Condition.create ()
let holders = ref 0
let active : t option ref = ref None

let with_ mutant f =
  Mutex.lock mu;
  while !holders > 0 && !active <> mutant do
    Condition.wait cv mu
  done;
  if !holders = 0 then begin
    List.iter (fun m -> flag m := false) all;
    (match mutant with Some m -> flag m := true | None -> ());
    active := mutant
  end;
  incr holders;
  Mutex.unlock mu;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock mu;
      decr holders;
      if !holders = 0 then begin
        List.iter (fun m -> flag m := false) all;
        active := None
      end;
      Condition.broadcast cv;
      Mutex.unlock mu)
