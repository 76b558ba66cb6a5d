type table = { title : string; headers : string list; rows : string list list }

let render ppf t =
  let all_rows = t.headers :: t.rows in
  let columns = List.length t.headers in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all_rows
  in
  let widths = List.init columns width in
  let pad cell w = cell ^ String.make (max 0 (w - String.length cell)) ' ' in
  let render_row row =
    List.mapi
      (fun c cell -> pad cell (List.nth widths c))
      row
    |> String.concat "  "
  in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  Format.fprintf ppf "%s@." t.title;
  Format.fprintf ppf "%s@." (render_row t.headers);
  Format.fprintf ppf "%s@." rule;
  List.iter (fun row -> Format.fprintf ppf "%s@." (render_row row)) t.rows

let to_string t = Format.asprintf "%a" render t

let of_metrics ?(title = "metrics snapshot") snap =
  {
    title;
    headers = [ "metric"; "type"; "value" ];
    rows = Obs.Metrics.rows snap;
  }
let cell_int = string_of_int
let cell_float ?(decimals = 1) v = Printf.sprintf "%.*f" decimals v
let cell_pct r = Printf.sprintf "%.0f%%" (100.0 *. r)
