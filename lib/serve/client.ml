(* [chunk.[start .. stop)] holds bytes read but not yet returned, and a
   reply longer than one read gathers in [line]. Both are allocated once
   per connection: an 8 KiB chunk is past the minor heap's object limit,
   so one per reply would be a major-heap allocation per request. *)
type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable start : int;
  mutable stop : int;
  line : Buffer.t;
}

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
      Ok
        {
          fd;
          chunk = Bytes.create 8192;
          start = 0;
          stop = 0;
          line = Buffer.create 256;
        }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let k = Unix.write_substring fd s off (n - off) in
      go (off + k)
  in
  go 0

let read_line t =
  let rec newline i =
    if i >= t.stop || Bytes.get t.chunk i = '\n' then i else newline (i + 1)
  in
  let rec go () =
    let i = newline t.start in
    if i < t.stop then begin
      Buffer.add_subbytes t.line t.chunk t.start (i - t.start);
      t.start <- i + 1;
      let line = Buffer.contents t.line in
      Buffer.clear t.line;
      Ok line
    end
    else begin
      Buffer.add_subbytes t.line t.chunk t.start (t.stop - t.start);
      t.start <- 0;
      t.stop <- 0;
      match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 -> Error "connection closed before a full response line arrived"
      | n ->
          t.stop <- n;
          go ()
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "read failed: %s" (Unix.error_message e))
    end
  in
  go ()

let call t req =
  match
    write_all t.fd (Obs.Json.to_string (Proto.request_to_json req) ^ "\n")
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "write failed: %s" (Unix.error_message e))
  | () -> (
      match read_line t with
      | Error _ as e -> e
      | Ok line -> Proto.parse_response line)

let rpc ~socket req =
  match connect ~socket with
  | Error _ as e -> e
  | Ok t ->
      Fun.protect ~finally:(fun () -> close t) (fun () -> call t req)
