(* Gladiators and citizens: the paper's §4 example, narrated.

     dune exec examples/gladiators.exe

   Three processes, p1 fails while p2 and p3 are correct. Υ may
   eventually output any subset except {p2, p3}. For each of the six
   legal stable sets we run Fig 1 and report who played gladiator
   (inside Υ's set) and who played citizen (outside), and how the round
   that kills a value actually unfolded. *)

let () =
  let n_plus_1 = 3 in
  let pattern = Wfde.Failure_pattern.make ~n_plus_1 ~crashes:[ (0, 60) ] in
  Format.printf
    "the paper's running example: 3 processes, p1 crashes, p2/p3 correct@.";
  Format.printf "legal eventual outputs of upsilon (any subset but {p2, p3}):@.";
  let legal = Wfde.Upsilon.legal_stable_sets ~pattern in
  List.iter (fun s -> Format.printf "  %a@." Wfde.Pid.Set.pp s) legal;
  Format.printf "@.";
  List.iter
    (fun stable_set ->
      let rng = Wfde.Rng.create 7 in
      let upsilon =
        Wfde.Upsilon.make ~rng ~pattern ~stable_set ~stab_time:100 ()
      in
      let proto =
        Wfde.Upsilon_sa.create ~name:"arena" ~n_plus_1 ~upsilon ()
      in
      let result =
        Wfde.Run.exec ~pattern
          ~policy:(Wfde.Policy.random (Wfde.Rng.split rng))
          ~horizon:1_000_000
          ~procs:(fun pid ->
            [ Wfde.Upsilon_sa.proposer proto ~me:pid ~input:(100 + pid) ])
          ()
      in
      let correct = Wfde.Failure_pattern.correct pattern in
      let gladiators = Wfde.Pid.Set.inter stable_set correct in
      let citizens = Wfde.Pid.Set.diff correct stable_set in
      let progress_reason =
        if not (Wfde.Pid.Set.is_empty citizens) then
          "a correct citizen publishes its value"
        else
          "a gladiator is faulty, so (|U|-1)-converge commits among the rest"
      in
      let decided =
        Wfde.Upsilon_sa.decisions proto
        |> List.map (fun (p, v) -> Format.asprintf "%a=%d" Wfde.Pid.pp p v)
        |> String.concat ", "
      in
      Format.printf
        "U = %-16s gladiators(correct) = %-10s citizens(correct) = %-10s@."
        (Wfde.Pid.Set.to_string stable_set)
        (Wfde.Pid.Set.to_string gladiators)
        (Wfde.Pid.Set.to_string citizens);
      Format.printf "  progress because %s@." progress_reason;
      Format.printf "  decisions: %s (in %d steps, %d rounds)@.@." decided
        result.steps
        (Wfde.Upsilon_sa.rounds_entered proto))
    legal
