(** Single line stuck-at faults: the abstract fault model whose coverage is
    the [T] of the paper's equations.

    Fault sites follow the classical line model: one *stem* per node output
    plus one *branch* per gate-input pin fed from a multi-fanout net (on
    fanout-free nets the branch is equivalent to the stem and is not
    enumerated). *)

open Dl_netlist

type polarity = Sa0 | Sa1

type site =
  | Stem of int  (** Output of node [id]. *)
  | Branch of { gate : int; pin : int }  (** Input [pin] of node [gate]. *)

type t = { site : site; polarity : polarity }

val compare : t -> t -> int
val equal : t -> t -> bool
val polarity_bool : polarity -> bool
val to_string : Circuit.t -> t -> string
(** E.g. ["n11 SA0"] or ["n16.in1 SA1"]. *)

val to_sim3_site : site -> Dl_logic.Sim3.site

val universe : Circuit.t -> t array
(** The full uncollapsed fault list (both polarities at every site), in a
    deterministic order. *)

val collapse : Circuit.t -> t array -> t array
(** Equivalence collapsing: within each gate, an input stuck at the
    controlling value is equivalent to the output stuck at the controlled
    response; BUF/NOT input faults are equivalent to (possibly inverted)
    output faults.  Returns one representative per equivalence class,
    preserving the input order of representatives. *)

val equivalence_classes : Circuit.t -> t array -> t array array
(** The partition underlying {!collapse}. *)

