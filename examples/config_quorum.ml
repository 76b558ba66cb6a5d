(* A systems-flavoured scenario: narrowing candidate configurations in a
   replicated service.

     dune exec examples/config_quorum.exe

   Six replicas of a coordination service each boot with their own
   preferred configuration epoch (think: which shard map to serve).
   Running one consensus per reconfiguration is impossible without
   strong failure information; but the service only needs to narrow the
   proposals to at most f candidates — f-set agreement — and then any
   cheap deterministic rule (e.g. min epoch) applied to a bounded
   candidate set keeps the service available. With up to f = 2 crashes,
   Fig 2 plus the almost-information-free oracle Υᶠ does exactly this.

   We run 5 reconfiguration epochs; in each, a random pair of replicas
   may crash mid-protocol. *)

let () =
  let n_plus_1 = 6 in
  let f = 2 in
  let master_rng = Wfde.Rng.create 31337 in
  Format.printf
    "replicated-config narrowing: %d replicas, tolerating %d crashes per epoch@.@."
    n_plus_1 f;
  let total_steps = ref 0 in
  for epoch = 1 to 5 do
    let rng = Wfde.Rng.split master_rng in
    let pattern =
      Wfde.Failure_pattern.random rng ~n_plus_1 ~max_faulty:f ~latest:400
    in
    let upsilon_f = Wfde.Upsilon_f.make ~rng ~pattern ~f () in
    let proto =
      Wfde.Upsilon_f_sa.create
        ~name:(Printf.sprintf "epoch%d" epoch)
        ~n_plus_1 ~f
        ~upsilon_f
        ()
    in
    (* each replica proposes its preferred config epoch id *)
    let proposal pid = (epoch * 1000) + ((pid * 7) mod 10) in
    let result =
      Wfde.Run.exec ~pattern
        ~policy:(Wfde.Policy.random (Wfde.Rng.split rng))
        ~horizon:2_000_000
        ~procs:(fun pid ->
          [ Wfde.Upsilon_f_sa.proposer proto ~me:pid ~input:(proposal pid) ])
        ()
    in
    total_steps := !total_steps + result.steps;
    let decisions = Wfde.Upsilon_f_sa.decisions proto in
    let candidates =
      List.sort_uniq Int.compare (List.map snd decisions)
    in
    let verdict =
      Wfde.Sa_spec.check ~k:f ~pattern
        ~proposals:(List.map (fun p -> (p, proposal p)) (Wfde.Pid.all ~n_plus_1))
        ~decisions ()
    in
    let chosen = match candidates with [] -> -1 | c :: _ -> c in
    Format.printf "epoch %d: %a@." epoch Wfde.Failure_pattern.pp pattern;
    Format.printf
      "  narrowed %d proposals -> %d candidate configs %s; service picks min = %d@."
      n_plus_1 (List.length candidates)
      (String.concat "," (List.map string_of_int candidates))
      chosen;
    Format.printf "  spec: %a@.@." Wfde.Sa_spec.pp verdict;
    if not (Wfde.Sa_spec.all_ok verdict) then exit 1
  done;
  Format.printf "5 epochs reconfigured in %d simulated steps total@."
    !total_steps
