open Effect.Deep

type status = Runnable | Done | Killed

type state =
  | Ready of (unit -> unit)
  | Pending : Sim.kind * (Sim.ctx -> 'a) * ('a, unit) continuation -> state
  | Finished
  | Dead

type t = {
  fiber_pid : Pid.t;
  mutable state : state;
  mutable daemon : bool;
}

let m_spawned = Obs.Metrics.counter "kernel.fiber.spawned"
let m_completed = Obs.Metrics.counter "kernel.fiber.completed"
let m_killed = Obs.Metrics.counter "kernel.fiber.killed"

let create ~pid ?name:_ body =
  Obs.Metrics.incr m_spawned;
  { fiber_pid = pid; state = Ready body; daemon = false }
let pid t = t.fiber_pid
let is_daemon t = t.daemon

let status t =
  match t.state with
  | Ready _ -> invalid_arg "Fiber.status: fiber not started"
  | Pending _ -> Runnable
  | Finished -> Done
  | Dead -> Killed

(* The handler re-captures the fiber at every suspension point; [retc]
   fires when the body returns. [Sim.Daemon] is answered on the spot:
   the state is still [Ready] exactly while [start] runs the local
   prefix, i.e. before the fiber's first atomic step. Other effects are
   left to outer handlers (there are none in practice, so they escape
   loudly). *)
let handler t =
  {
    retc =
      (fun () ->
        Obs.Metrics.incr m_completed;
        t.state <- Finished);
    exnc = (fun e -> t.state <- Finished; raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Sim.Atomic (kind, f) ->
            Some
              (fun (k : (a, unit) continuation) ->
                t.state <- Pending (kind, f, k))
        | Sim.Daemon ->
            Some
              (fun (k : (a, unit) continuation) ->
                match t.state with
                | Ready _ ->
                    t.daemon <- true;
                    continue k ()
                | Pending _ | Finished | Dead ->
                    discontinue k
                      (Invalid_argument
                         "Sim.daemon: called after the fiber's first step"))
        | _ -> None);
  }

let start t =
  match t.state with
  | Ready body -> match_with body () (handler t)
  | Pending _ | Finished | Dead -> invalid_arg "Fiber.start: already started"

let pending_kind t =
  match t.state with
  | Pending (kind, _, _) -> kind
  | Ready _ | Finished | Dead -> invalid_arg "Fiber.pending_kind: not runnable"

let step t ctx =
  match t.state with
  | Pending (_, f, k) -> (
      (* An exception from the atomic action belongs to the process, not
         the scheduler: deliver it at the suspension point so protocol
         code can catch it (e.g. Consensus_obj.Port_exhausted). *)
      match f ctx with
      | result -> continue k result
      | exception e -> discontinue k e)
  | Ready _ | Finished | Dead -> invalid_arg "Fiber.step: not runnable"

let kill t =
  match t.state with
  | Pending _ | Ready _ ->
      Obs.Metrics.incr m_killed;
      t.state <- Dead
  | Finished | Dead -> ()
