type kind =
  | Read of { obj : string }
  | Write of { obj : string }
  | Send of { obj : string }
  | Recv of { obj : string }
  | Query of { detector : string }
  | Output of { label : string; value : string }
  | Input of { label : string; value : string }
  | Nop

type 'v source = {
  name : string;
  sample : Pid.t -> int -> 'v;
  render : 'v -> string;
  equal : 'v -> 'v -> bool;
  id : 'v Type.Id.t;
}

module Witness = struct
  let pid : Pid.t Type.Id.t = Type.Id.make ()
  let pid_set : Pid.Set.t Type.Id.t = Type.Id.make ()
  let bool : bool Type.Id.t = Type.Id.make ()
end

type payload = No_payload | Note of string | Value : 'v source * 'v -> payload

let render_payload = function
  | No_payload -> None
  | Note n -> Some n
  | Value (src, v) -> Some (src.render v)

type ctx = { mutable pid : Pid.t; mutable now : int; mutable payload : payload }

type _ Effect.t +=
  | Atomic : kind * (ctx -> 'a) -> 'a Effect.t
  | Daemon : unit Effect.t

let atomic kind f = Effect.perform (Atomic (kind, f))
let daemon () = Effect.perform Daemon
let yield () = atomic Nop (fun _ -> ())
let now () = atomic Nop (fun ctx -> ctx.now)
let output ~label ~value = atomic (Output { label; value }) (fun _ -> ())
let input ~label ~value = atomic (Input { label; value }) (fun _ -> ())

let query src =
  atomic
    (Query { detector = src.name })
    (fun ctx ->
      let v = src.sample ctx.pid ctx.now in
      ctx.payload <- Value (src, v);
      v)

let kind_pp ppf = function
  | Read { obj } -> Format.fprintf ppf "read(%s)" obj
  | Write { obj } -> Format.fprintf ppf "write(%s)" obj
  | Send { obj } -> Format.fprintf ppf "send(%s)" obj
  | Recv { obj } -> Format.fprintf ppf "recv(%s)" obj
  | Query { detector } -> Format.fprintf ppf "query(%s)" detector
  | Output { label; value } -> Format.fprintf ppf "output(%s=%s)" label value
  | Input { label; value } -> Format.fprintf ppf "input(%s=%s)" label value
  | Nop -> Format.fprintf ppf "nop"
