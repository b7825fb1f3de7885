(** Coverage-versus-test-length curves built from first-detection records.

    Works for both the unweighted stuck-at coverage [T(k)] (and the
    unweighted realistic coverage [Γ(k)]) and the weighted realistic
    coverage [Θ(k)] of the paper (eq. 6): supply per-fault weights to weight
    each detection. *)

type t

val make : ?weights:float array -> int option array -> t
(** [make ~weights first_detection] — [first_detection.(i)] is the index of
    the first vector detecting fault [i] ([None] if never).  [weights]
    defaults to all-ones (unweighted coverage).  Every query answers
    bit-identically to {!Reference.make}'s.
    @raise Invalid_argument on a weights length mismatch, a negative or NaN
    weight, a negative vector index, or an index too large to pack beside
    a fault index in one int. *)

val total_faults : t -> int
val total_weight : t -> float

val at : t -> int -> float
(** [at t k]: coverage after the first [k] vectors (detections at indices
    [< k]), in [\[0,1\]].  O(log n) — binary search over the sorted event
    array plus a precomputed cumulative-weight table, so sampling a whole
    {!curve} over many [ks] is O(n log n). *)

val final : t -> float
(** Coverage with the complete vector set. *)

val log_spaced : max:int -> points:int -> int array
(** Roughly log-spaced distinct integers in [\[1, max\]], always including
    both endpoints — the natural x-axis for Fig. 4. *)

val detections_in_order : t -> (int * float) array
(** [(vector_index, cumulative_coverage)] at each detection event, in
    vector order: the exact staircase of the coverage curve. *)

val sort_packed : shift:int -> int array -> unit
(** [sort_packed ~shift a] sorts [a] in place by [x lsr shift], making the
    same comparisons as [Array.sort (fun x y -> compare (x lsr shift)
    (y lsr shift)) a], so elements with equal keys end in the same order
    (exposed for tests). *)

(** The implementation {!make} replaced, kept as its oracle: boxed
    [(index, weight)] events sorted by the generic [Array.sort].  Unlike
    {!make} it accepts NaN weights and negative indices. *)
module Reference : sig
  type t

  val make : ?weights:float array -> int option array -> t
  val total_faults : t -> int
  val total_weight : t -> float
  val at : t -> int -> float
  val final : t -> float
  val detections_in_order : t -> (int * float) array
end
