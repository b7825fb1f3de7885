(** Indexed view of a flattened transistor network: channel adjacency per
    node, driver instances per node, and node classification.  Shared by the
    region solver and the fault extractor. *)

open Dl_cell

type t

val build : Mapping.network -> t

val mapping : t -> Mapping.network

val channel_edges : t -> int -> int list
(** Transistor indices with a source or drain terminal on this node. *)

val gated_by : t -> int -> int list
(** Transistor indices whose gate terminal is this node. *)

val owner_instance : t -> int -> int option
(** The cell instance that drives (owns) this node: the instance whose
    output or internal node it is.  [None] for rails and primary-input
    signal nodes. *)

val is_rail : t -> int -> bool
val is_primary_input : t -> int -> bool
