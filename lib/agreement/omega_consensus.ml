open Kernel

type t = Omega_k_sa.t

let create ~name ~n_plus_1 ~omega =
  let committee_of_leader =
    {
      Sim.name = omega.Sim.name ^ ".as_committee";
      sample = (fun pid time -> Pid.Set.singleton (omega.Sim.sample pid time));
      render = Pid.Set.to_string;
      equal = Pid.Set.equal;
      id = Sim.Witness.pid_set;
    }
  in
  Omega_k_sa.create ~name ~n_plus_1 ~k:1 ~omega_k:committee_of_leader

let proposer = Omega_k_sa.proposer
let decisions = Omega_k_sa.decisions
let decision_rounds = Omega_k_sa.decision_rounds
