(** Descriptive statistics over float arrays. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singleton arrays. *)

val stddev : float array -> float

val min_max : float array -> float * float

val total : float array -> float
(** Kahan-compensated sum. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0,1\]], linear interpolation between order
    statistics ([Float.compare] ordering). Does not mutate the input.
    @raise Invalid_argument on an empty array, [q] outside [\[0,1\]], or
    NaN in the data (NaN has no rank, so any answer would be arbitrary). *)
