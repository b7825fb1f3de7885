(** Log-bucketed latency accumulator with high-quantile fidelity.

    The previous service-time ring kept the last 512 samples, which makes
    p99 noisy and p999 meaningless (at 512 samples the 99.9th percentile
    is literally the maximum).  This accumulator instead counts every
    observation into geometrically spaced buckets — ~2.3% relative width
    from 1 µs to 5 minutes — so any percentile of the {e whole} run is
    available in O(buckets), with bounded (~2.3%) relative error and no
    per-observation allocation.

    Not thread-safe; callers serialize access ({!Dl_serve.Metrics} wraps
    one in its lock). *)

type t

val create : unit -> t

val add : t -> float -> unit
(** [add t ms] records one observation in milliseconds.  Non-finite and
    negative values are counted but clamped into the extreme buckets. *)

val count : t -> int
(** Observations recorded so far. *)

val max_ms : t -> float
(** Largest observation recorded so far ([0.0] when empty) — exact, not
    bucketed. *)

val mean_ms : t -> float
(** Sum of all observations (exact) over [count]; [0.0] when empty. *)

val percentile : t -> float -> float
(** [percentile t q] for [q] in [\[0, 1\]]: an upper bucket edge covering
    the nearest-rank sample, within ~2.3% of the true value.  Defined as
    [0.0] on an empty accumulator — never NaN — so pre-first-request
    stats print as zeros rather than [nan]. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src]'s counts into [dst]. *)
