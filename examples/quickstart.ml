(* Quickstart: solve wait-free n-set-agreement with Υ in a dozen lines.

     dune exec examples/quickstart.exe

   Four processes, up to three may crash, each proposes a distinct value;
   the oracle Υ eventually agrees on some set that is not the set of
   correct processes, and Fig 1 turns that sliver of information into
   decisions on at most three values. *)

let () =
  let n_plus_1 = 4 in
  (* 1. A world: p2 crashes at time 40, the others are correct. *)
  let pattern =
    Wfde.Failure_pattern.make ~n_plus_1 ~crashes:[ (1, 40) ]
  in
  Format.printf "world: %a@." Wfde.Failure_pattern.pp pattern;

  (* 2. A Υ history over that pattern: garbage until t=120, then some
     legal stable set (chosen at random among all sets that are not the
     correct set). *)
  let rng = Wfde.Rng.create 2024 in
  let upsilon = Wfde.Upsilon.make ~rng ~pattern ~stab_time:120 () in
  Format.printf "upsilon stabilizes by t=120 on %a@."
    Wfde.Detector.(fun ppf d -> (sample d 0 120 |> Wfde.Pid.Set.pp ppf))
    upsilon;

  (* 3. The Fig-1 protocol object and one fiber per process. *)
  let proto =
    Wfde.Upsilon_sa.create ~name:"quickstart" ~n_plus_1 ~upsilon ()
  in
  let result =
    Wfde.Run.exec ~pattern
      ~policy:(Wfde.Policy.random (Wfde.Rng.split rng))
      ~horizon:1_000_000
      ~procs:(fun pid ->
        [ Wfde.Upsilon_sa.proposer proto ~me:pid ~input:(10 * (pid + 1)) ])
      ()
  in

  (* 4. Harvest decisions and check the k-set-agreement spec. *)
  Format.printf "run took %d steps@." result.steps;
  List.iter
    (fun (pid, v) -> Format.printf "  %a decided %d@." Wfde.Pid.pp pid v)
    (Wfde.Upsilon_sa.decisions proto);
  let verdict =
    Wfde.Sa_spec.check ~k:(n_plus_1 - 1) ~pattern
      ~proposals:(List.map (fun p -> (p, 10 * (p + 1))) (Wfde.Pid.all ~n_plus_1))
      ~decisions:(Wfde.Upsilon_sa.decisions proto)
      ()
  in
  Format.printf "spec: %a@." Wfde.Sa_spec.pp verdict;
  if not (Wfde.Sa_spec.all_ok verdict) then exit 1
