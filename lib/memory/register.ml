open Kernel

(* A register builds its step labels and its reader once, so a read
   allocates nothing of its own. The reader also notes the time of its
   step in [read_at], which a timed read takes as soon as it resumes:
   nothing else steps in between. Counters go through the creating
   domain's registry, taken once. *)
type 'a t = {
  reg_name : string;
  mutable cell : 'a;
  mutable read_at : int;
  read_kind : Sim.kind;
  write_kind : Sim.kind;
  reader : Sim.ctx -> 'a;
  metrics : Obs.Metrics.registry;
}

let m_reads = Obs.Metrics.counter "memory.register.reads"
let m_writes = Obs.Metrics.counter "memory.register.writes"

let create ~name init =
  let rec t =
    {
      reg_name = name;
      cell = init;
      read_at = 0;
      read_kind = Sim.Read { obj = name };
      write_kind = Sim.Write { obj = name };
      reader =
        (fun ctx ->
          t.read_at <- ctx.Sim.now;
          t.cell);
      metrics = Obs.Metrics.registry ();
    }
  in
  t

let name t = t.reg_name

let read t =
  Obs.Metrics.add_in t.metrics m_reads 1;
  Sim.atomic t.read_kind t.reader

let write t v =
  Obs.Metrics.add_in t.metrics m_writes 1;
  Sim.atomic t.write_kind (fun _ -> t.cell <- v)

let read_timed t =
  let v = read t in
  (t.read_at, v)

let write_timed t v =
  Obs.Metrics.add_in t.metrics m_writes 1;
  Sim.atomic t.write_kind (fun ctx ->
      t.cell <- v;
      ctx.Sim.now)

let peek t = t.cell
let poke t v = t.cell <- v

let array ~name ~size ~init =
  Array.init size (fun i ->
      create ~name:(name ^ "[" ^ string_of_int i ^ "]") (init i))

let collect arr = Array.map read arr

let collect_timed arr =
  let n = Array.length arr in
  if n = 0 then ([||], max_int, 0)
  else begin
    let values = Array.make n (read arr.(0)) in
    (* before another process's read of [arr.(0)] can restamp it *)
    let first = arr.(0).read_at in
    for i = 1 to n - 1 do
      values.(i) <- read arr.(i)
    done;
    (values, first, arr.(n - 1).read_at)
  end

module Counter = struct
  type nonrec t = int t

  let incr t =
    (* Single-writer: the read-modify-write is safe to fuse into one
       atomic step because only the owner ever writes. *)
    Obs.Metrics.add_in t.metrics m_writes 1;
    Sim.atomic t.write_kind (fun _ -> t.cell <- t.cell + 1)
end
