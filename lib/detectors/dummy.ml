let make ?name ~value ~pp ~equal ~id () =
  let name = match name with Some n -> n | None -> "dummy" in
  { Detector.name; history = (fun _ _ -> value); pp; equal; id }
