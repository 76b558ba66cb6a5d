type kind =
  | Read of { obj : string }
  | Write of { obj : string }
  | Send of { obj : string }
  | Recv of { obj : string }
  | Query of { detector : string }
  | Output of { label : string; value : string }
  | Input of { label : string; value : string }
  | Nop

module Witness = struct
  let pid : Pid.t Type.Id.t = Type.Id.make ()
  let pid_set : Pid.Set.t Type.Id.t = Type.Id.make ()
  let bool : bool Type.Id.t = Type.Id.make ()
end

type ctx = { mutable pid : Pid.t; mutable now : int; mutable payload : payload }

and 'v source = {
  name : string;
  sample : Pid.t -> int -> 'v;
  render : 'v -> string;
  equal : 'v -> 'v -> bool;
  id : 'v Type.Id.t;
  query_kind : kind;
  query_step : ctx -> 'v;
}

and payload = No_payload | Note of string | Value : 'v source * 'v -> payload

(* A source builds its step label and its step once, so a query
   allocates only the payload it records. *)
let source ~name ~sample ~render ~equal ~id =
  let rec src =
    {
      name;
      sample;
      render;
      equal;
      id;
      query_kind = Query { detector = name };
      query_step =
        (fun ctx ->
          let v = sample ctx.pid ctx.now in
          ctx.payload <- Value (src, v);
          v);
    }
  in
  src

let render_payload = function
  | No_payload -> None
  | Note n -> Some n
  | Value (src, v) -> Some (src.render v)

type _ Effect.t +=
  | Atomic : kind * (ctx -> 'a) -> 'a Effect.t
  | Daemon : unit Effect.t

let atomic kind f = Effect.perform (Atomic (kind, f))
let daemon () = Effect.perform Daemon
let yield () = atomic Nop (fun _ -> ())
let now () = atomic Nop (fun ctx -> ctx.now)
let output ~label ~value = atomic (Output { label; value }) (fun _ -> ())
let input ~label ~value = atomic (Input { label; value }) (fun _ -> ())

let query src = atomic src.query_kind src.query_step

let kind_pp ppf = function
  | Read { obj } -> Format.fprintf ppf "read(%s)" obj
  | Write { obj } -> Format.fprintf ppf "write(%s)" obj
  | Send { obj } -> Format.fprintf ppf "send(%s)" obj
  | Recv { obj } -> Format.fprintf ppf "recv(%s)" obj
  | Query { detector } -> Format.fprintf ppf "query(%s)" detector
  | Output { label; value } -> Format.fprintf ppf "output(%s=%s)" label value
  | Input { label; value } -> Format.fprintf ppf "input(%s=%s)" label value
  | Nop -> Format.fprintf ppf "nop"
