module Seeds = Dl_util.Seeds
module Rng = Dl_util.Rng
module Stats = Dl_util.Stats
module Coverage = Dl_fault.Coverage
module B = Dl_util.Binary

type ci = { lo : float; median : float; hi : float }

type t = {
  replicates : int;
  fit_points : int;
  point : Projection.fit;
  alpha_point : float;
  r : ci;
  theta_max : ci;
  alpha : ci;
  r_samples : float array;
  theta_max_samples : float array;
  alpha_samples : float array;
}

let ci_of_samples xs =
  {
    lo = Stats.quantile xs 0.05;
    median = Stats.quantile xs 0.50;
    hi = Stats.quantile xs 0.95;
  }

let contains ci x = ci.lo <= x && x <= ci.hi

(* Rebuild a result from its persisted parts (the [bootstrap-fit] stage
   artifact stores the samples; the quantile summaries are pure functions
   of them). *)
let of_samples ~fit_points ~point ~alpha_point ~r_samples ~theta_max_samples
    ~alpha_samples =
  let replicates = Array.length r_samples in
  if replicates = 0 then invalid_arg "Bootstrap.of_samples: no samples";
  if
    Array.length theta_max_samples <> replicates
    || Array.length alpha_samples <> replicates
  then invalid_arg "Bootstrap.of_samples: sample arrays differ in length";
  {
    replicates;
    fit_points;
    point;
    alpha_point;
    r = ci_of_samples r_samples;
    theta_max = ci_of_samples theta_max_samples;
    alpha = ci_of_samples alpha_samples;
    r_samples;
    theta_max_samples;
    alpha_samples;
  }

(* One (T(k), Θ(k)) sample grid plus the derived (T, DL) points the alpha
   fit consumes — shared by the point estimate and every replicate. *)
let curves_at ~yield ~ks ~t_curve ~theta_curve =
  let samples =
    Array.map (fun k -> (Coverage.at t_curve k, Coverage.at theta_curve k)) ks
  in
  let dl_points =
    Array.to_list
      (Array.map
         (fun (t, theta) -> (t, Weighted.defect_level ~yield ~theta))
         samples)
  in
  (samples, dl_points)

let resample rng a =
  let n = Array.length a in
  Array.init n (fun _ -> a.(Rng.int rng n))

let run ?(fit_points = 100) ~seeds ~replicates ~yield ~t_firsts ~theta_firsts
    ~theta_weights ~n_vectors () =
  if replicates <= 0 then
    invalid_arg "Bootstrap.run: replicates must be positive";
  if not (yield > 0.0 && yield <= 1.0) then
    invalid_arg "Bootstrap.run: yield must be in (0, 1]";
  if Array.length t_firsts = 0 then
    invalid_arg "Bootstrap.run: empty stuck-at detection data";
  let nr = Array.length theta_firsts in
  if nr = 0 then invalid_arg "Bootstrap.run: empty realistic detection data";
  if Array.length theta_weights <> nr then
    invalid_arg "Bootstrap.run: theta firsts and weights differ in length";
  if n_vectors < 1 then invalid_arg "Bootstrap.run: n_vectors must be >= 1";
  let ks = Coverage.log_spaced ~max:n_vectors ~points:fit_points in
  let point_of ~t_curve ~theta_curve ~fit_f ~alpha_init =
    let samples, dl_points = curves_at ~yield ~ks ~t_curve ~theta_curve in
    let fit = fit_f samples in
    let alpha, _ = Clustered.fit_alpha ?init:alpha_init ~yield dl_points in
    (fit, alpha)
  in
  (* Full-data point estimate: the expensive multi-start fit, whose optimum
     then seeds every replicate's single-start refit. *)
  let point, alpha_point =
    point_of
      ~t_curve:(Coverage.make t_firsts)
      ~theta_curve:(Coverage.make ~weights:theta_weights theta_firsts)
      ~fit_f:Projection.fit_theta ~alpha_init:None
  in
  let r_samples = Array.make replicates 0.0 in
  let theta_max_samples = Array.make replicates 0.0 in
  let alpha_samples = Array.make replicates 0.0 in
  for i = 0 to replicates - 1 do
    let rng = Seeds.stream seeds (Printf.sprintf "rep-%d" i) in
    (* Case resampling: redraw the stuck-at universe and the realistic
       fault population (weight and detection move together) with
       replacement, rebuild both coverage curves, refit. *)
    let t_curve = Coverage.make (resample rng t_firsts) in
    let idx = Array.init nr (fun _ -> Rng.int rng nr) in
    let theta_curve =
      Coverage.make
        ~weights:(Array.map (fun j -> theta_weights.(j)) idx)
        (Array.map (fun j -> theta_firsts.(j)) idx)
    in
    let fit, alpha =
      point_of ~t_curve ~theta_curve
        ~fit_f:(Projection.fit_theta_from ~init:point.Projection.params)
        ~alpha_init:(Some alpha_point)
    in
    r_samples.(i) <- fit.Projection.params.r;
    theta_max_samples.(i) <- fit.Projection.params.theta_max;
    alpha_samples.(i) <- alpha
  done;
  of_samples ~fit_points ~point ~alpha_point ~r_samples ~theta_max_samples
    ~alpha_samples

(* The percentile summaries are not stored: [of_samples] recomputes them
   on decode, so the two can never disagree. *)
let codec : t Dl_store.Codec.t =
  let encode buf t =
    let write_floats = B.write_array (fun b v -> B.write_float b v) in
    B.write_varint buf t.fit_points;
    B.write_float buf t.point.params.r;
    B.write_float buf t.point.params.theta_max;
    B.write_float buf t.point.rmse;
    B.write_bool buf (t.point.rmse_scale = Projection.Log10);
    B.write_float buf t.alpha_point;
    write_floats buf t.r_samples;
    write_floats buf t.theta_max_samples;
    write_floats buf t.alpha_samples
  in
  let decode cur =
    let fit_points = B.read_varint cur in
    let r = B.read_float cur in
    let theta_max = B.read_float cur in
    let rmse = B.read_float cur in
    let log10 = B.read_bool cur in
    let alpha_point = B.read_float cur in
    let r_samples = B.read_array B.read_float cur in
    let theta_max_samples = B.read_array B.read_float cur in
    let alpha_samples = B.read_array B.read_float cur in
    if
      Array.length theta_max_samples <> Array.length r_samples
      || Array.length alpha_samples <> Array.length r_samples
    then raise (B.Corrupt "bootstrap-fit sample arrays differ in length");
    let point =
      {
        Projection.params = { r; theta_max };
        rmse;
        rmse_scale = (if log10 then Projection.Log10 else Projection.Linear);
      }
    in
    of_samples ~fit_points ~point ~alpha_point ~r_samples ~theta_max_samples
      ~alpha_samples
  in
  { kind = "bootstrap-fit"; version = 1; encode; decode }
