let make ?name ~value ~render ~equal ~id () =
  let name = match name with Some n -> n | None -> "dummy" in
  Kernel.Sim.source ~name ~sample:(fun _ _ -> value) ~render ~equal ~id
