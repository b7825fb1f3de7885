(** n-detection profiles: the multi-detect analogue of a first-detection
    record.

    A profile is a {!Dl_fault.Fault_sim.ndet} result viewed as a family of
    coverage curves: for every [n <= max_n], the n-detection coverage
    T{_n}(k) is the (possibly weighted) fraction of faults whose n-th
    detection happened within the first [k] vectors.  One simulation at
    [drop_after:max_n] therefore yields the whole curve family
    T{_1} ... T{_max_n} — T{_1} being the ordinary coverage of the
    single-detection flow. *)

type t = Dl_fault.Fault_sim.ndet

val max_n : t -> int
(** The [drop_after] quota the profile was simulated with. *)

val counts : t -> int array
(** Per-fault detection counts, capped at [max_n]. *)

val detected_at_least : t -> k:int -> int
(** Number of faults detected at least [k] times. *)

val coverage : ?weights:float array -> t -> n:int -> Dl_fault.Coverage.t
(** The T{_n}(k) curve: a fault counts as covered at vector [k] once its
    n-th detection has occurred at some index [< k].  With [weights] this
    is the n-detection analogue of the paper's Θ(k) (eq. 6).  At [n:1]
    (any [weights]) this is bit-identical to
    [Coverage.make ?weights first_detection] of the equivalent
    single-detection run. *)

val final_coverage : ?weights:float array -> t -> n:int -> float
(** [Coverage.final (coverage ?weights t ~n)]. *)
