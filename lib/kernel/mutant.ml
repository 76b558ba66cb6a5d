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
