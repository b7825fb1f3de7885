module Numerics = Dl_util.Numerics

type params = { r : float; theta_max : float }

let check_params { r; theta_max } =
  if r <= 0.0 then invalid_arg "Projection: R must be positive";
  if not (theta_max > 0.0 && theta_max <= 1.0) then
    invalid_arg "Projection: theta_max must be in (0, 1]"

let check_yield yield =
  if not (yield > 0.0 && yield <= 1.0) then
    invalid_arg "Projection: yield must be in (0, 1]"

let theta_of_coverage params t =
  check_params params;
  if not (t >= 0.0 && t <= 1.0) then
    invalid_arg "Projection.theta_of_coverage: coverage must be in [0, 1]";
  params.theta_max *. (1.0 -. Numerics.pow1m (1.0 -. t) params.r)

let defect_level ~yield ~params ~coverage =
  check_yield yield;
  let theta = theta_of_coverage params coverage in
  1.0 -. Numerics.pow1m yield (1.0 -. theta)

let residual_defect_level ~yield ~theta_max =
  check_yield yield;
  if not (theta_max > 0.0 && theta_max <= 1.0) then
    invalid_arg "Projection.residual_defect_level: theta_max must be in (0, 1]";
  1.0 -. Numerics.pow1m yield (1.0 -. theta_max)

let required_coverage ~yield ~params ~target_dl =
  check_yield yield;
  check_params params;
  if not (target_dl >= 0.0 && target_dl < 1.0) then
    invalid_arg "Projection.required_coverage: target must be in [0, 1)";
  if yield = 1.0 then Some 0.0
  else if target_dl >= defect_level ~yield ~params ~coverage:0.0 then Some 0.0
  else if target_dl <= residual_defect_level ~yield ~theta_max:params.theta_max
  then None
  else begin
    (* Invert eq. 11 in closed form:
       (1-T)^R = 1 - (1 - ln(1-DL)/ln Y) / θmax. *)
    let theta = 1.0 -. (Float.log1p (-.target_dl) /. log yield) in
    let base = 1.0 -. (theta /. params.theta_max) in
    let t = 1.0 -. Numerics.pow1m base (1.0 /. params.r) in
    Some (Numerics.clamp01 t)
  end

type rmse_scale = Linear | Log10
type fit = { params : params; rmse : float; rmse_scale : rmse_scale }

let rmse_unit = function Linear -> "linear units" | Log10 -> "log10 units"

let lo = [| 0.05; 0.01 |]
let hi = [| 50.0; 1.0 |]

(* Degenerate data (a NaN coordinate, a coverage outside [0,1]) would
   otherwise surface as NaN parameters out of the simplex; reject it
   up front.  Single-point and zero-variance inputs are fine — the fit
   degenerates gracefully to a finite (if meaningless) optimum. *)
let check_points ~who points =
  if Array.length points = 0 then
    invalid_arg (Printf.sprintf "Projection.%s: no points" who);
  Array.iter
    (fun (t, y) ->
      if Float.is_nan t || Float.is_nan y then
        invalid_arg (Printf.sprintf "Projection.%s: NaN in data" who);
      if not (t >= 0.0 && t <= 1.0) then
        invalid_arg
          (Printf.sprintf "Projection.%s: coverage outside [0, 1]" who))
    points

(* Multi-start: the boundary theta_max = 1 attracts a local optimum. *)
let starts =
  List.concat_map
    (fun r0 -> List.map (fun t0 -> [| r0; t0 |]) [ 0.6; 0.9; 0.99 ])
    [ 0.7; 1.0; 1.5; 2.5; 5.0 ]

let best_fit ~model data =
  List.fold_left
    (fun acc init ->
      let r = Dl_util.Fit.curve_fit ~model ~lo ~hi ~init data in
      match acc with
      | Some (b : Dl_util.Fit.fit) when b.rss <= r.rss -> acc
      | _ -> Some r)
    None starts
  |> Option.get

let fit_dl ~yield points =
  check_yield yield;
  check_points ~who:"fit_dl" points;
  (* Fit on log10 DL so the ppm tail matters as much as the knee. *)
  let floor_dl = 1e-12 in
  let log_points =
    Array.to_list
      (Array.map (fun (t, dl) -> (t, log10 (Float.max floor_dl dl))) points)
  in
  let data = Dl_util.Fit.make_data log_points in
  let model p t =
    let dl =
      defect_level ~yield ~params:{ r = p.(0); theta_max = p.(1) } ~coverage:t
    in
    log10 (Float.max floor_dl dl)
  in
  let r = best_fit ~model data in
  { params = { r = r.params.(0); theta_max = r.params.(1) };
    rmse = r.rmse;
    rmse_scale = Log10 }

(* eq. 9's least-squares objective over fixed points, compiled: [1 - t]
   and its log are taken once per distinct coverage (points come in k
   order, so equal coverages are adjacent), and each evaluation raises to
   [r] once per distinct coverage.  These are the float operations
   [Fit.residual_sum] applies through {!theta_of_coverage} — the same
   [pow1m] branches, the squares summed in point order, a NaN term turning
   the sum into infinity — so every value is bit-identical to the generic
   path's.  The points must have passed [check_points]. *)
let theta_objective points =
  let n = Array.length points in
  let group = Array.make n 0 in
  let base = Array.make n 0.0 and log_base = Array.make n 0.0 in
  let groups = ref 0 in
  Array.iteri
    (fun i (t, _) ->
      if i = 0 || t <> fst points.(i - 1) then begin
        base.(!groups) <- 1.0 -. t;
        log_base.(!groups) <- log (1.0 -. t);
        incr groups
      end;
      group.(i) <- !groups - 1)
    points;
  let groups = !groups in
  let observed = Array.map snd points in
  let theta = Array.make groups 0.0 in
  fun p ->
    let r = p.(0) and theta_max = p.(1) in
    check_params { r; theta_max };
    for j = 0 to groups - 1 do
      let y = base.(j) in
      let pw =
        if y = 0.0 then if r = 0.0 then 1.0 else 0.0
        else if r = 0.0 then 1.0
        else if r = 1.0 then y
        else exp (r *. log_base.(j))
      in
      theta.(j) <- theta_max *. (1.0 -. pw)
    done;
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let d = theta.(group.(i)) -. observed.(i) in
      let term = d *. d in
      if Float.is_nan term then acc := infinity else acc := !acc +. term
    done;
    !acc

(* One bounded descent, as [Fit.curve_fit] runs it. *)
let descend objective ~n init =
  let r = Dl_util.Simplex.minimize_bounded ~f:objective ~lo ~hi init in
  (r.xmin, r.fmin, sqrt (r.fmin /. float_of_int n))

let theta_fit (xmin, _, rmse) =
  { params = { r = xmin.(0); theta_max = xmin.(1) }; rmse; rmse_scale = Linear }

let clamp_init init =
  let clamp v l h = Float.min h (Float.max l v) in
  [| clamp init.r lo.(0) hi.(0); clamp init.theta_max lo.(1) hi.(1) |]

let fit_theta points =
  check_points ~who:"fit_theta" points;
  let objective = theta_objective points and n = Array.length points in
  (* [best_fit]'s selection: a later start wins only on a strictly lower
     residual sum. *)
  List.fold_left
    (fun acc init ->
      let ((_, rss, _) as r) = descend objective ~n init in
      match acc with
      | Some (_, best, _) when best <= rss -> acc
      | _ -> Some r)
    None starts
  |> Option.get |> theta_fit

let fit_theta_from ~init points =
  check_params init;
  check_points ~who:"fit_theta_from" points;
  theta_fit (descend (theta_objective points) ~n:(Array.length points) (clamp_init init))

module Reference = struct
  let model p t = theta_of_coverage { r = p.(0); theta_max = p.(1) } t

  let fit_theta points =
    check_points ~who:"fit_theta" points;
    let data = Dl_util.Fit.make_data (Array.to_list points) in
    let r = best_fit ~model data in
    { params = { r = r.params.(0); theta_max = r.params.(1) };
      rmse = r.rmse;
      rmse_scale = Linear }

  let fit_theta_from ~init points =
    check_params init;
    check_points ~who:"fit_theta_from" points;
    let data = Dl_util.Fit.make_data (Array.to_list points) in
    let r = Dl_util.Fit.curve_fit ~model ~lo ~hi ~init:(clamp_init init) data in
    { params = { r = r.params.(0); theta_max = r.params.(1) };
      rmse = r.rmse;
      rmse_scale = Linear }
end
