type binning =
  | Linear of { lo : float; hi : float; bins : int }
  | Log10 of { lo : float; hi : float; bins : int }

type t = {
  binning : binning;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
}

let bins_of = function Linear { bins; _ } | Log10 { bins; _ } -> bins

let create binning =
  (match binning with
  | Linear { lo; hi; bins } ->
      if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
      if not (lo < hi) then invalid_arg "Histogram.create: need lo < hi"
  | Log10 { lo; hi; bins } ->
      if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
      if not (lo > 0.0 && lo < hi) then
        invalid_arg "Histogram.create: need 0 < lo < hi");
  { binning; counts = Array.make (bins_of binning) 0; underflow = 0; overflow = 0 }

(* Map a value to a fractional bin position in [0, bins). *)
let position t x =
  match t.binning with
  | Linear { lo; hi; bins } ->
      (x -. lo) /. (hi -. lo) *. float_of_int bins
  | Log10 { lo; hi; bins } ->
      if x <= 0.0 then -1.0
      else (log10 x -. log10 lo) /. (log10 hi -. log10 lo) *. float_of_int bins

let add t x =
  let bins = Array.length t.counts in
  let p = position t x in
  if p < 0.0 then t.underflow <- t.underflow + 1
  else begin
    let i = int_of_float p in
    if i >= bins then
      (* The right edge itself belongs to the last bin. *)
      if p = float_of_int bins then t.counts.(bins - 1) <- t.counts.(bins - 1) + 1
      else t.overflow <- t.overflow + 1
    else t.counts.(i) <- t.counts.(i) + 1
  end

let add_many t xs = Array.iter (add t) xs

let counts t = Array.copy t.counts
let underflow t = t.underflow
let overflow t = t.overflow

let total t = t.underflow + t.overflow + Array.fold_left ( + ) 0 t.counts

let bin_edges t =
  let bins = Array.length t.counts in
  match t.binning with
  | Linear { lo; hi; _ } ->
      Array.init (bins + 1) (fun i ->
          lo +. ((hi -. lo) *. float_of_int i /. float_of_int bins))
  | Log10 { lo; hi; _ } ->
      let llo = log10 lo and lhi = log10 hi in
      Array.init (bins + 1) (fun i ->
          10.0 ** (llo +. ((lhi -. llo) *. float_of_int i /. float_of_int bins)))

let to_rows t =
  let edges = bin_edges t in
  Array.to_list (Array.mapi (fun i c -> (edges.(i), edges.(i + 1), c)) t.counts)

let render ?(width = 50) t =
  let peak = Array.fold_left max 1 t.counts in
  let buf = Buffer.create 256 in
  List.iter
    (fun (lo, hi, c) ->
      let bar = c * width / peak in
      Buffer.add_string buf
        (Printf.sprintf "[%10.3e, %10.3e) %6d %s\n" lo hi c (String.make bar '#')))
    (to_rows t);
  if t.underflow > 0 then
    Buffer.add_string buf (Printf.sprintf "underflow %d\n" t.underflow);
  if t.overflow > 0 then
    Buffer.add_string buf (Printf.sprintf "overflow %d\n" t.overflow);
  Buffer.contents buf
