(* Prints the minor heap size, in words, of the calling domain and then
   of each unit of one parallel [Pool.map], space-separated. The exec
   suite runs it under a larger startup size ([OCAMLRUNPARAM=s=4M]) to
   check that workers keep it. *)

let () =
  let size _ = (Gc.get ()).Gc.minor_heap_size in
  let caller = size () in
  let units = Exec.Pool.map (Exec.Pool.create ~jobs:2 ()) ~f:size 4 in
  print_string (String.concat " " (List.map string_of_int (caller :: units)))
