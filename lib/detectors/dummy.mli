(** The dummy failure detector (paper §6.3): a constant output,
    implementable in any asynchronous system, hence carrying no failure
    information. A problem solvable with a dummy detector is f-resilient
    solvable; a detector that solves an f-resilient impossible problem is
    f-non-trivial. Lemma 8's proof swaps a detector for a dummy — the
    test suite replays that swap. *)

val make :
  ?name:string ->
  value:'v ->
  render:('v -> string) ->
  equal:('v -> 'v -> bool) ->
  id:'v Type.Id.t ->
  unit ->
  'v Detector.t
