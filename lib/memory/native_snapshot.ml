open Kernel

type 'a t = { arr : 'a array; read_kind : Sim.kind; write_kind : Sim.kind }

let m_scans = Obs.Metrics.counter "memory.native_snapshot.scans"
let m_updates = Obs.Metrics.counter "memory.native_snapshot.updates"

let create ~name ~size ~init =
  {
    arr = Array.init size init;
    read_kind = Sim.Read { obj = name };
    write_kind = Sim.Write { obj = name };
  }

let size t = Array.length t.arr

let update t ~me v =
  Obs.Metrics.incr m_updates;
  Sim.atomic t.write_kind (fun _ -> t.arr.(me) <- v)

let scan t =
  Obs.Metrics.incr m_scans;
  Sim.atomic t.read_kind (fun _ -> Array.copy t.arr)
let peek t = Array.copy t.arr
