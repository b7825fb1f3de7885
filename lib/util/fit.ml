type data = { xs : float array; ys : float array }

let make_data pts =
  if pts = [] then invalid_arg "Fit.make_data: empty data";
  let xs = Array.of_list (List.map fst pts) in
  let ys = Array.of_list (List.map snd pts) in
  { xs; ys }

type fit = {
  params : float array;
  rss : float;
  rmse : float;
  converged : bool;
}

let residual_sum ~model data p =
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let r = model p x -. data.ys.(i) in
      let term = r *. r in
      if Float.is_nan term then acc := infinity else acc := !acc +. term)
    data.xs;
  !acc

let curve_fit ?tol ?max_iter ~model ~lo ~hi ~init data =
  if Array.length data.xs <> Array.length data.ys then
    invalid_arg "Fit.curve_fit: xs and ys differ in length";
  if Array.length data.xs = 0 then invalid_arg "Fit.curve_fit: empty data";
  let objective p = residual_sum ~model data p in
  let r = Simplex.minimize_bounded ?tol ?max_iter ~f:objective ~lo ~hi init in
  let n = float_of_int (Array.length data.xs) in
  { params = r.xmin; rss = r.fmin; rmse = sqrt (r.fmin /. n); converged = r.converged }
