(** Deterministic pseudo-random number generation.

    All randomness in the project flows through this module so that every
    experiment is reproducible from an explicit seed.  The generator is
    splitmix64 (Steele, Lea & Flood 2014): fast, statistically strong for
    simulation purposes, and trivially splittable. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from an arbitrary integer seed. *)

val of_state : int64 -> t
(** [of_state s] makes a generator whose splitmix64 state starts exactly
    at [s] — the hook {!Seeds} uses to turn a path digest into a stream.
    Prefer {!create} (which pre-mixes) for ad-hoc integer seeds. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Raises [Invalid_argument] if
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t lambda] samples Exp(lambda) (mean [1/lambda]). *)

val gaussian : t -> float
(** Standard normal sample (Box–Muller). *)

val log_uniform : t -> float -> float -> float
(** [log_uniform t lo hi] samples so that the logarithm is uniform on
    [\[log lo, log hi\]]; requires [0 < lo <= hi]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> 'a array -> int -> 'a array
(** [sample t arr k] draws [k] distinct elements uniformly (without
    replacement). Raises [Invalid_argument] if [k > Array.length arr]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val word : t -> int64
(** Alias of {!bits64}, used to fill parallel-pattern simulation words. *)
