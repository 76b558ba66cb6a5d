(* Watching Fig 3 at work: extracting Υᶠ from an eventually-perfect
   failure detector, with a timeline of the extracted outputs.

     dune exec examples/extraction_timeline.exe

   ◇P suspects arbitrarily for a while, then exactly the crashed
   processes — a stable detector in the paper's sense. Feeding it to the
   Fig-3 reduction with the hand-derived map ϕ_◇P yields a variable that
   behaves exactly like Υᶠ: it may wobble between Π and candidate sets
   while ◇P's output is still in flux, and settles on a set that is
   provably not the set of correct processes. *)

let () =
  let n_plus_1 = 4 in
  let f = 2 in
  let pattern =
    Wfde.Failure_pattern.make ~n_plus_1 ~crashes:[ (2, 150) ]
  in
  let rng = Wfde.Rng.create 99 in
  let dp = Wfde.Detectors.Ev_perfect.make ~rng ~pattern ~stab_time:250 () in
  Format.printf "world: %a;  source: eventually-perfect detector@."
    Wfde.Failure_pattern.pp pattern;
  Format.printf "correct set: %a (the one set the extraction must avoid)@.@."
    Wfde.Pid.Set.pp
    (Wfde.Failure_pattern.correct pattern);
  let ex =
    Wfde.Extract_upsilon.create ~name:"ex" ~n_plus_1 ~f
      ~detector:(Wfde.Detector.source dp) ~equal:Wfde.Pid.Set.equal
      ~phi:(Wfde.Phi.suspicion ~n_plus_1 ~f)
  in
  let result =
    Wfde.Run.exec ~pattern
      ~policy:(Wfde.Policy.random (Wfde.Rng.split rng))
      ~horizon:120_000
      ~procs:(fun pid -> Wfde.Extract_upsilon.fibers ex ~me:pid)
      ()
  in
  Format.printf "timeline of extracted upsilon_f outputs (first 30 changes):@.";
  let changes = Wfde.Extract_upsilon.change_log ex in
  List.iteri
    (fun i (pid, time, s) ->
      if i < 30 then
        Format.printf "  t=%-7d %a -> %a@." time Wfde.Pid.pp pid
          Wfde.Pid.Set.pp s)
    changes;
  if List.length changes > 30 then
    Format.printf "  ... (%d more changes)@." (List.length changes - 30);
  Format.printf "@.final outputs:@.";
  List.iter
    (fun pid ->
      match Wfde.Extract_upsilon.current_output ex pid with
      | Some s ->
          Format.printf "  %a: %a%s@." Wfde.Pid.pp pid Wfde.Pid.Set.pp s
            (if Wfde.Failure_pattern.is_correct pattern pid then ""
             else "  (crashed)")
      | None -> Format.printf "  %a: (none)@." Wfde.Pid.pp pid)
    (Wfde.Pid.all ~n_plus_1);
  match
    Wfde.Extract_upsilon.check ex ~pattern
      ~last_time:(Wfde.Run.last_time result)
      ~tail:20_000
  with
  | Ok () ->
      Format.printf
        "@.extracted variable satisfies the upsilon_f specification@."
  | Error msg ->
      Format.printf "@.extraction FAILED the spec: %s@." msg;
      exit 1
