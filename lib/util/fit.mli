(** Least-squares curve fitting of parametric models to sampled data,
    built on {!Simplex}.  This is how the paper determines [R] and [θmax]
    ("the parameters R and θmax can be determined by experimental curve
    fitting") and how Agrawal's [n] is obtained. *)

type data = { xs : float array; ys : float array }

val make_data : (float * float) list -> data
(** Build a data set from point pairs.  Raises on empty input. *)

type fit = {
  params : float array;  (** Fitted parameter vector. *)
  rss : float;           (** Residual sum of squares at the optimum. *)
  rmse : float;          (** Root mean squared residual. *)
  converged : bool;
}

val curve_fit :
  ?tol:float ->
  ?max_iter:int ->
  model:(float array -> float -> float) ->
  lo:float array ->
  hi:float array ->
  init:float array ->
  data ->
  fit
(** [curve_fit ~model ~lo ~hi ~init data] minimizes
    [Σ_i (model p xs.(i) - ys.(i))²] over the box [\[lo, hi\]]. *)
