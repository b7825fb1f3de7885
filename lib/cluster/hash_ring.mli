(** Consistent-hash ring over worker endpoints.

    Each member is planted at [replicas] pseudo-random points on a 63-bit
    ring (MD5-derived, so placement is stable across processes and OCaml
    versions); a key belongs to the first member clockwise of its own
    point.  Adding or removing one member therefore moves only ~1/N of
    the key space — the property that makes a worker joining or leaving
    cheap for the store tier. *)

type t

val create : ?replicas:int -> string list -> t
(** Members are deduplicated; order does not matter (two rings built from
    permutations of the same list are identical). *)

val members : t -> string list
(** Sorted, deduplicated. *)

val is_empty : t -> bool

val home : t -> string -> string
(** The member owning a key.
    @raise Invalid_argument on an empty ring. *)

val route : ?n:int -> t -> string -> string list
(** The first [n] (default: all) {e distinct} members in ring order
    starting at the key's home — the preference list for fetch-through
    and failover.  Empty for an empty ring; [route t key] always starts
    with [home t key]. *)
