(** Fixed-bin histograms, including logarithmic bins for fault-weight
    distributions (paper Fig. 3 spans roughly 1e-9..1e-6). *)

type t

type binning =
  | Linear of { lo : float; hi : float; bins : int }
      (** Equal-width bins on [\[lo, hi\]]. *)
  | Log10 of { lo : float; hi : float; bins : int }
      (** Equal-width bins in log10 space; requires [0 < lo < hi]. *)

val create : binning -> t

val add : t -> float -> unit
(** Insert one observation.  Values outside the range are recorded in
    underflow/overflow counters, not dropped silently. *)

val add_many : t -> float array -> unit

val counts : t -> int array
(** In-range bin counts, left to right. *)

val underflow : t -> int
val overflow : t -> int
val total : t -> int
(** All observations, including out-of-range ones. *)

val bin_edges : t -> float array
(** [bins + 1] edges in data space (for log bins, the exponentiated edges). *)

val render : ?width:int -> t -> string
(** ASCII bar rendering, one line per bin. *)
