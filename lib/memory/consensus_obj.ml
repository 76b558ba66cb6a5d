open Kernel

exception Port_exhausted of string

type 'a t = {
  obj_name : string;
  ports : int option;
  mutable value : 'a option;
  mutable users : Pid.Set.t;
}

let create ~name ~ports = { obj_name = name; ports; value = None; users = Pid.Set.empty }

let propose t v =
  Sim.atomic
    (Sim.Write { obj = t.obj_name })
    (fun ctx ->
      if not (Pid.Set.mem ctx.Sim.pid t.users) then begin
        (match t.ports with
        | Some limit when Pid.Set.cardinal t.users >= limit ->
            raise
              (Port_exhausted
                 (Printf.sprintf "%s: %d ports, %s is one too many" t.obj_name
                    limit (Pid.to_string ctx.Sim.pid)))
        | Some _ | None -> ());
        t.users <- Pid.Set.add ctx.Sim.pid t.users
      end;
      match t.value with
      | Some w -> w
      | None ->
          t.value <- Some v;
          v)

let accessors t = t.users
