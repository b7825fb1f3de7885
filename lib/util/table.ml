type align = Left | Right

type t = {
  headers : string array;
  aligns : align array;
  mutable rows : string list list; (* reversed *)
}

let create columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  {
    headers = Array.of_list (List.map fst columns);
    aligns = Array.of_list (List.map snd columns);
    rows = [];
  }

let add_row t cells =
  if List.length cells <> Array.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let pad i cell =
    let w = widths.(i) in
    let fill = String.make (w - String.length cell) ' ' in
    match t.aligns.(i) with Left -> cell ^ fill | Right -> fill ^ cell
  in
  let line cells =
    String.concat "  " (List.mapi pad cells)
  in
  let rule =
    String.concat "  "
      (List.init ncols (fun i -> String.make widths.(i) '-'))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line (Array.to_list t.headers));
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t = print_string (render t)

let fmt_pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
let fmt_ppm x = Printf.sprintf "%.1f ppm" (1e6 *. x)
