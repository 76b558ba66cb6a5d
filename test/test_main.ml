let () =
  Alcotest.run "wfde"
    [
      ("kernel", Test_kernel.suite);
      ("memory", Test_memory.suite);
      ("detectors", Test_detectors.suite);
      ("converge", Test_converge.suite);
      ("agreement", Test_agreement.suite);
      ("reduction", Test_reduction.suite);
      ("obs", Test_obs.suite);
      ("span", Test_span.suite);
      ("exec", Test_exec.suite);
      ("wfde", Test_wfde.suite);
      ("faults", Test_faults.suite);
      ("explore", Test_explore.suite);
      ("check", Test_check.suite);
      ("dpor-golden", Test_dpor_golden.suite);
      ("dpor-diff", Test_dpor_diff.suite);
      ("lin-diff", Test_lin_diff.suite);
      ("oracles", Test_oracles.suite);
      ("network", Test_link.network_suite);
      ("link", Test_link.suite);
      ("hb", Test_hb.suite);
      ("abd", Test_abd.suite);
      ("msg-consensus", Test_msg_consensus.suite);
      ("serve", Test_serve.suite);
      ("cache", Test_cache.suite);
    ]
