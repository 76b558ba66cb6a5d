(* Deterministic timers driven by simulated time (the global step
   count). A timer is pure local bookkeeping: expiry is a comparison
   against a [now] the owner obtained from one of its own steps. No wall
   clock is involved anywhere, so runs stay a pure function of (seed,
   schedule) and DPOR replays are exact. *)

module Periodic = struct
  type t = { period : int; mutable next : int }

  let create ~period =
    if period <= 0 then invalid_arg "Timer.Periodic.create: period must be > 0";
    { period; next = 0 }

  (* Due at most once per call; after firing the next deadline is
     anchored to [now] (not to the missed slot), so a process starved
     for many periods emits one event on resume, not a burst. *)
  let due t ~now =
    if now >= t.next then begin
      t.next <- now + t.period;
      true
    end
    else false
end
