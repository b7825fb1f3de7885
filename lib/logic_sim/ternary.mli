(** Three-valued logic (0, 1, X) used by the PODEM ATPG for implication and
    X-path analysis. *)

type t = V0 | V1 | VX

val of_bool : bool -> t
val to_bool : t -> bool option
val to_char : t -> char
val equal : t -> t -> bool
val inv : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t

val eval : Dl_netlist.Gate.kind -> t array -> t
(** Ternary gate evaluation with full X-propagation (e.g. AND with any input
    at 0 yields 0 even if others are X).  Arity is {e not} validated (gates in
    a finalized circuit were checked at construction); use {!eval_checked}
    for fanin arrays of unknown provenance. *)
