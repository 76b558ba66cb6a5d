open Kernel

type t = Heartbeat.t

let make ?(name = "hb_ev_perfect") ?params ~n_plus_1 ~net () =
  Heartbeat.create ~name ~n_plus_1 ~mode:Heartbeat.Common_timeout ?params ~net
    ()

let check ?(min_tail = 20) t ~pattern ~horizon =
  Result.bind (Heartbeat.stabilization_window ~min_tail t ~pattern ~horizon)
    (fun stab_by ->
      Ev_perfect.check
        ~only:(Failure_pattern.is_correct pattern)
        (Heartbeat.to_detector t) ~pattern ~stab_by ~horizon)
