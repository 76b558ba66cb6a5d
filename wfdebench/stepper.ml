(* The traced leg's kernel driver: a copy of [Kernel.Run.exec] that
   advances the scheduler one [Scheduler.step] at a time, reads the
   monotonic clock around every step, and buckets the step's time by the
   layer its [Sim.kind] names. Nothing inside the library is touched: the
   per-pid pending kinds come from [Scheduler.iter_pending], read before
   the step and outside the timed window. *)

open Wfde

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Layers a step can belong to, by label. Network mailboxes are the
   [Write {obj = "<net>-><pid>"}] objects of [Kernel.Network]; link
   steps are [Send]/[Recv]; every other read or write is a register
   (snapshots and converge are built from registers). *)
let register = 0
let net = 1
let link = 2
let detector = 3
let other = 4
let layers = 5

let is_mailbox obj =
  let n = String.length obj in
  let rec go i = i + 1 < n && ((obj.[i] = '-' && obj.[i + 1] = '>') || go (i + 1)) in
  go 0

let layer_of = function
  | Sim.Send _ | Sim.Recv _ -> link
  | Sim.Read { obj } | Sim.Write { obj } -> if is_mailbox obj then net else register
  | Sim.Query _ -> detector
  | Sim.Output _ | Sim.Input _ | Sim.Nop -> other

type t = {
  ns : int array;  (** summed step time per layer *)
  steps : int array;  (** steps per layer *)
  mutable useful : int;  (** summed time of each world's last useful event *)
  mutable executed : int;  (** steps executed in stepped worlds *)
  mutable failures : string list;  (** claim failures of stepped worlds *)
}

let create () =
  {
    ns = Array.make layers 0;
    steps = Array.make layers 0;
    useful = 0;
    executed = 0;
    failures = [];
  }

let fail t fmt = Printf.ksprintf (fun m -> t.failures <- m :: t.failures) fmt

(* Record a finished world: the time of its last useful event and the
   steps it ran. *)
let useful t ~last ~steps =
  t.useful <- t.useful + last;
  t.executed <- t.executed + steps

let total_steps t = Array.fold_left ( + ) 0 t.steps
let total_ns t = Array.fold_left ( + ) 0 t.ns

(* Same fibers, names and stopping rule as [Run.exec]; returns the trace
   and the number of steps taken. *)
let exec t ~pattern ~policy ~horizon ~procs =
  let n = Failure_pattern.n_plus_1 pattern in
  let fibers =
    Pid.all ~n_plus_1:n
    |> List.concat_map (fun pid ->
           List.mapi
             (fun j body ->
               let name = Format.asprintf "%a/t%d" Pid.pp pid j in
               Kernel.Fiber.create ~pid ~name body)
             (procs pid))
  in
  let sched = Kernel.Scheduler.create ~pattern ~policy ~fibers in
  let pending = Array.make n other in
  let note p k = pending.(p) <- layer_of k in
  let rec loop remaining =
    if remaining = 0 then Kernel.Scheduler.flush_metrics sched
    else begin
      Kernel.Scheduler.iter_pending sched note;
      let t0 = now_ns () in
      match Kernel.Scheduler.step sched with
      | `Stepped p ->
          let dt = now_ns () - t0 in
          let l = pending.(p) in
          t.ns.(l) <- t.ns.(l) + dt;
          t.steps.(l) <- t.steps.(l) + 1;
          loop (remaining - 1)
      | `Stopped _ -> ()
    end
  in
  loop horizon;
  (Kernel.Scheduler.trace sched, Kernel.Scheduler.now sched)
