module Seeds = Dl_util.Seeds
module Rng = Dl_util.Rng
module Prob = Dl_util.Prob
module Stats = Dl_util.Stats
module B = Dl_util.Binary

type band = {
  k : int;
  coverage : float;
  dl_point : float;
  dl_q05 : float;
  dl_q50 : float;
  dl_q95 : float;
  passed : int;
  defective_passed : int;
  wafer_dls : float array;
}

type t = {
  dies : int;
  dies_per_wafer : int;
  wafers_per_lot : int;
  wafers : int;
  lots : int;
  alpha_wafer : float;
  alpha_lot : float;
  defective : int;
  bands : band array;
}

let codec : t Dl_store.Codec.t =
  let encode_band buf b =
    B.write_varint buf b.k;
    B.write_float buf b.coverage;
    B.write_float buf b.dl_point;
    B.write_float buf b.dl_q05;
    B.write_float buf b.dl_q50;
    B.write_float buf b.dl_q95;
    B.write_varint buf b.passed;
    B.write_varint buf b.defective_passed;
    B.write_array (fun b v -> B.write_float b v) buf b.wafer_dls
  in
  let decode_band cur =
    let k = B.read_varint cur in
    let coverage = B.read_float cur in
    let dl_point = B.read_float cur in
    let dl_q05 = B.read_float cur in
    let dl_q50 = B.read_float cur in
    let dl_q95 = B.read_float cur in
    let passed = B.read_varint cur in
    let defective_passed = B.read_varint cur in
    let wafer_dls = B.read_array B.read_float cur in
    { k; coverage; dl_point; dl_q05; dl_q50; dl_q95; passed;
      defective_passed; wafer_dls }
  in
  let encode buf t =
    B.write_varint buf t.dies;
    B.write_varint buf t.dies_per_wafer;
    B.write_varint buf t.wafers_per_lot;
    B.write_varint buf t.wafers;
    B.write_varint buf t.lots;
    B.write_float buf t.alpha_wafer;
    B.write_float buf t.alpha_lot;
    B.write_varint buf t.defective;
    B.write_array encode_band buf t.bands
  in
  let decode cur =
    let dies = B.read_varint cur in
    let dies_per_wafer = B.read_varint cur in
    let wafers_per_lot = B.read_varint cur in
    let wafers = B.read_varint cur in
    let lots = B.read_varint cur in
    let alpha_wafer = B.read_float cur in
    let alpha_lot = B.read_float cur in
    let defective = B.read_varint cur in
    let bands = B.read_array decode_band cur in
    { dies; dies_per_wafer; wafers_per_lot; wafers; lots; alpha_wafer;
      alpha_lot; defective; bands }
  in
  { kind = "wafer-mc"; version = 1; encode; decode }

let observed_yield t =
  if t.dies = 0 then 1.0
  else float_of_int (t.dies - t.defective) /. float_of_int t.dies

let check_alpha name a =
  if Float.is_nan a || a <= 0.0 then
    invalid_arg (Printf.sprintf "Wafer_mc.simulate: %s must be positive" name)

(* A mean-1 clustering severity: the first draw of a dedicated stream, so
   re-deriving the stream (for each wafer of a lot, say) re-reads the same
   value — order-independent by construction. *)
let severity seeds path ~alpha =
  if Float.is_finite alpha then
    Prob.gamma_mixing_sample (Seeds.stream seeds path) ~alpha
  else 1.0

(* Draw one die: defect count N ~ Poisson(g * W), each defect lands on
   fault j with probability w_j / W (categorical by cumulative-weight
   binary search).  The die is defective iff N >= 1; it passes the test at
   vector count k iff no landed fault is detected before k, i.e. iff the
   minimum first-detection index over its faults is >= k. *)
let sample_die rng ~cumulative ~total ~firsts ~g =
  let n = Prob.poisson_sample rng ~lambda:(g *. total) in
  if n = 0 then (false, None)
  else begin
    let m = Array.length cumulative in
    let min_first = ref None in
    for _ = 1 to n do
      let u = Rng.float rng total in
      let lo = ref 0 and hi = ref (m - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cumulative.(mid) <= u then lo := mid + 1 else hi := mid
      done;
      (match (firsts.(!lo), !min_first) with
      | Some f, Some b -> if f < b then min_first := Some f
      | (Some _ as f), None -> min_first := f
      | None, _ -> ())
    done;
    (true, !min_first)
  end

let simulate ?(dies_per_wafer = 256) ?(wafers_per_lot = 4)
    ?(alpha_wafer = infinity) ?(alpha_lot = infinity) ~seeds ~dies ~weights
    ~firsts ~points () =
  if dies <= 0 then invalid_arg "Wafer_mc.simulate: dies must be positive";
  if dies_per_wafer <= 0 then
    invalid_arg "Wafer_mc.simulate: dies_per_wafer must be positive";
  if wafers_per_lot <= 0 then
    invalid_arg "Wafer_mc.simulate: wafers_per_lot must be positive";
  check_alpha "alpha_wafer" alpha_wafer;
  check_alpha "alpha_lot" alpha_lot;
  let nf = Array.length weights in
  if Array.length firsts <> nf then
    invalid_arg "Wafer_mc.simulate: weights and firsts differ in length";
  Array.iter
    (fun w ->
      if not (w >= 0.0) then invalid_arg "Wafer_mc.simulate: negative weight")
    weights;
  let np = Array.length points in
  if np = 0 then invalid_arg "Wafer_mc.simulate: no coverage points";
  let cumulative = Array.make (max nf 1) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cumulative.(i) <- !acc)
    weights;
  let total = !acc in
  let wafers = (dies + dies_per_wafer - 1) / dies_per_wafer in
  let lots = (wafers + wafers_per_lot - 1) / wafers_per_lot in
  let defective = ref 0 in
  (* Pooled pass/escape counters per coverage point, plus the per-wafer DL
     samples the quantile bands are computed over. *)
  let passed = Array.make np 0 in
  let defective_passed = Array.make np 0 in
  let samples = Array.make np [] in
  for w = 0 to wafers - 1 do
    let lot = w / wafers_per_lot in
    let g_lot = severity seeds (Printf.sprintf "lot-%d" lot) ~alpha:alpha_lot in
    let g_wafer =
      severity seeds (Printf.sprintf "wafer-%d" w) ~alpha:alpha_wafer
    in
    let g = g_lot *. g_wafer in
    let first_die = w * dies_per_wafer in
    let last_die = min dies (first_die + dies_per_wafer) - 1 in
    let w_passed = Array.make np 0 in
    let w_defective_passed = Array.make np 0 in
    for d = first_die to last_die do
      let rng = Seeds.stream seeds (Printf.sprintf "die-%d" d) in
      let is_defective, min_first =
        sample_die rng ~cumulative ~total ~firsts ~g
      in
      if is_defective then incr defective;
      Array.iteri
        (fun i (k, _) ->
          let die_passes =
            match min_first with None -> true | Some f -> f >= k
          in
          if die_passes then begin
            w_passed.(i) <- w_passed.(i) + 1;
            if is_defective then
              w_defective_passed.(i) <- w_defective_passed.(i) + 1
          end)
        points
    done;
    for i = 0 to np - 1 do
      passed.(i) <- passed.(i) + w_passed.(i);
      defective_passed.(i) <- defective_passed.(i) + w_defective_passed.(i);
      if w_passed.(i) > 0 then
        samples.(i) <-
          (float_of_int w_defective_passed.(i) /. float_of_int w_passed.(i))
          :: samples.(i)
    done
  done;
  let bands =
    Array.mapi
      (fun i (k, coverage) ->
        let dl_point =
          if passed.(i) = 0 then 0.0
          else float_of_int defective_passed.(i) /. float_of_int passed.(i)
        in
        let wafer_dls = Array.of_list (List.rev samples.(i)) in
        let q p =
          if Array.length wafer_dls = 0 then dl_point
          else Stats.quantile wafer_dls p
        in
        {
          k;
          coverage;
          dl_point;
          dl_q05 = q 0.05;
          dl_q50 = q 0.50;
          dl_q95 = q 0.95;
          passed = passed.(i);
          defective_passed = defective_passed.(i);
          wafer_dls;
        })
      points
  in
  {
    dies;
    dies_per_wafer;
    wafers_per_lot;
    wafers;
    lots;
    alpha_wafer;
    alpha_lot;
    defective = !defective;
    bands;
  }

let final_band t = t.bands.(Array.length t.bands - 1)
