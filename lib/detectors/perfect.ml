open Kernel

let make ~pattern =
  Sim.source ~name:"perfect"
    ~sample:(fun _pid time -> Failure_pattern.crashed_by pattern time)
    ~render:Pid.Set.to_string ~equal:Pid.Set.equal ~id:Sim.Witness.pid_set

let check d ~pattern ~horizon = Ev_perfect.check d ~pattern ~stab_by:0 ~horizon
