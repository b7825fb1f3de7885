(** Three-valued downstream propagation of fault effects: evaluate only the
    fanout cone of a set of overridden nodes against known fault-free
    values.  Shared by the switch-level simulators and the gate-level
    bridging-fault model. *)

open Dl_netlist

val run :
  Circuit.t -> bool array -> (int * Ternary.t) list ->
  (int, Ternary.t) Hashtbl.t
(** [run c good seeds] evaluates the fanout cone of the seed overrides
    against the fault-free values [good] (one bool per node) and returns
    the sparse map of nodes whose faulty value differs (or is X). *)

val po_detects :
  Circuit.t -> bool array -> (int, Ternary.t) Hashtbl.t -> bool
(** Whether some primary output settles to a definite wrong value. *)

(** {!run} and {!po_detects} on state allocated once per circuit and
    reused from walk to walk: no allocation per walk.  The faulty-value map
    of the last walk stays readable until the next {!start}. *)
module Cone : sig
  type t

  val create : Circuit.t -> t

  val start : t -> bool array -> unit
  (** Clear the map and take [good] as the fault-free values of the next
      walk. *)

  val seed : t -> int -> Ternary.t -> unit
  (** One seed override of {!run}, applied in call order: a value equal to
      the fault-free one is ignored. *)

  val propagate : t -> unit
  (** Evaluate the fanout cone of the seeds. *)

  val mem : t -> int -> bool
  (** Whether the node is in the map ([Hashtbl.mem] on {!run}'s result). *)

  val get : t -> int -> Ternary.t
  (** The node's faulty value: its map entry, else its fault-free value. *)

  val po_detects : t -> bool
end
