(* Several domains enter their first parallel [Pool.map] together and,
   held by a second barrier inside the units, finish it together, so
   the pool's end-of-run bookkeeping runs from all of them at once.
   Exits 0 when every caller got its result back, 1 (naming the
   exception) when any caller raised. Only the first parallel run of a
   process can expose a race in one-time set-up, so the probe is meant
   to be run many times, each in a fresh process. *)

let callers = 4
let jobs = 2

let barrier count n =
  Atomic.incr count;
  while Atomic.get count < n do
    Domain.cpu_relax ()
  done

let () =
  let entered = Atomic.make 0 and running = Atomic.make 0 in
  let caller () =
    barrier entered callers;
    let f i =
      barrier running (callers * jobs);
      i
    in
    match Exec.Pool.map (Exec.Pool.create ~jobs ()) ~f jobs with
    | r -> if r = List.init jobs Fun.id then None else Some "wrong result"
    | exception e -> Some (Printexc.to_string e)
  in
  let domains = List.init callers (fun _ -> Domain.spawn caller) in
  match List.filter_map Domain.join domains with
  | [] -> exit 0
  | e :: _ ->
      prerr_endline ("pool race probe: " ^ e);
      exit 1
