open Kernel

type 'a t = {
  arr : 'a array;
  read_kind : Sim.kind;
  write_kind : Sim.kind;
  metrics : Obs.Metrics.registry; (* the creating domain's, for every count *)
}

let m_scans = Obs.Metrics.counter "memory.native_snapshot.scans"
let m_updates = Obs.Metrics.counter "memory.native_snapshot.updates"

let create ~name ~size ~init =
  {
    arr = Array.init size init;
    read_kind = Sim.Read { obj = name };
    write_kind = Sim.Write { obj = name };
    metrics = Obs.Metrics.registry ();
  }

let update t ~me v =
  Obs.Metrics.add_in t.metrics m_updates 1;
  Sim.atomic t.write_kind (fun _ -> t.arr.(me) <- v)

let scan t =
  Obs.Metrics.add_in t.metrics m_scans 1;
  Sim.atomic t.read_kind (fun _ -> Array.copy t.arr)
