(** Steady-state switch-level solver for a faulted region of the chip.

    The region is a small transistor sub-network (the faulted cell, or the
    two cells joined by a bridge).  Nodes are resolved by drive-strength
    path analysis: conductance is the reciprocal of the series resistance
    of the best on-path to a rail (NMOS channels are stronger than PMOS,
    external pad drivers stronger still), opposing definite paths make a
    *fight* (static IDDQ current) whose winner is the stronger side,
    undriven nodes retain their charge from the previous vector — which is
    exactly the memory effect that makes transistor stuck-opens require
    two-pattern tests. *)

open Dl_logic

type modification =
  | Remove_transistor of int
      (** Global transistor index: models a stuck-open device. *)
  | Short_transistor of int
      (** Channel permanently conducting: a stuck-on device /
          gate-oxide short. *)
  | Bridge_nodes of { node_a : int; node_b : int }
      (** Hard (zero-resistance) short between two network nodes. *)

type t

val make :
  Network.t -> instances:int list -> modifications:modification list -> t
(** Build a region over the given cell instances.  Bridged nodes that are
    primary-input signals get an implicit strong external driver. *)

val observable_nodes : t -> int list
(** {!nodes} plus bridged pad-driven primary-input nodes: every node whose
    resolved value should be propagated downstream. *)

type outcome = {
  values : (int * Ternary.t) list;
      (** Resolved value per region node (global ids), including cell
          outputs to propagate downstream. *)
  fight : bool;
      (** A definite rail-to-rail (or driver-to-rail) conducting path
          exists: elevated quiescent current, observable by IDDQ testing. *)
}

val solve :
  t ->
  external_value:(int -> Ternary.t) ->
  charge:(int -> Ternary.t) ->
  outcome
(** [external_value] supplies values of nodes outside the region (gate
    terminals, bridged PI drivers); [charge] supplies the previous-vector
    value of region nodes for floating-node retention ([Ternary.VX] for an
    unknown initial state).

    This is the reference solver, kept as the oracle of {!solve_compiled}. *)

(** {2 Compiled regions}

    The production solver: {!solve} on a region lowered into arrays, with
    results bit-identical to it.  A region has at most 62 locals and 62
    kept edges, so each relaxation round decides the four rail passes as
    one-int reach sets, and runs the exact shortest-path passes only when
    some node is driven definitely from both rails, since only then do the
    distances themselves matter. *)

type shape
(** Everything a compiled solve reads: the region's topology over its
    locals, its solved nodes, pads and external slots.  Regions that
    lower to equal arrays (floats compared by their bits) share one
    shape, so a solve is a function of the shape, the external values
    and the charge alone. *)

type compiled
(** One region: its shape plus the global ids of its solved nodes and
    external slots. *)

type lowering
(** Per-run lowering state for one network: stamped global-to-local
    arrays, reusable buffers and the table of shapes interned so far.
    Not shared between domains. *)

val lowering : Network.t -> lowering

val lower :
  lowering -> instances:int list -> modifications:modification list -> compiled
(** The region {!make} builds, lowered with {!make}'s local numbering, its
    shape interned in the lowering's table.  The work is done in the
    lowering's buffers: what outlives the call is the two global maps
    and, when the shape is new, the shape.
    @raise Invalid_argument as {!make} does, and for a region of more
    than 62 locals (rails, solved nodes and gate terminals) or 62 kept
    edges; the cell library's largest region has 18 and 25. *)

val shape_count : lowering -> int
(** Distinct shapes interned so far; their ids are [0 .. count - 1]. *)

val shape : compiled -> shape
val shape_id : shape -> int

val external_nodes : compiled -> int array
(** Global ids of the nodes whose values a compiled solve reads from
    outside the region (gate terminals, bridged PI drivers), in slot
    order. *)

val solved_nodes : compiled -> int array
(** Global ids of the nodes a compiled solve reports, in the order of
    [(solve t ...).values]. *)

val charged_count : shape -> int
(** The solved nodes whose charge a solve can read: the first
    [charged_count] of {!solved_nodes}.  Pad-driven nodes are always
    driven. *)

val solved_count : shape -> int
val external_count : shape -> int

type scratch
(** Working arrays, grown on demand; one per simulation run. *)

val scratch : unit -> scratch

val solve_compiled :
  shape ->
  scratch ->
  ext:Ternary.t array ->
  charge:Ternary.t array ->
  out:Ternary.t array ->
  bool
(** [solve_compiled sh s ~ext ~charge ~out] reads [ext.(i)], the value of
    external slot [i], and [charge.(i)], the previous value of solved node
    [i]; it writes the value of solved node [i] into [out.(i)] and returns
    [fight].  Equal to {!solve} on the same inputs.  Relaxation stops as
    soon as a round changes no node that gates a transistor: the next
    round would see the same conduction and repeat the same values. *)

val read_charge : scratch -> bool
(** Whether the last {!solve_compiled} on this scratch read [charge] (some
    solved node had no rail path in some round).  When it did not, every
    round saw the same inputs under any charge, so the outcome holds for
    every charge. *)

val rounds : scratch -> int
(** Relaxation rounds run by every {!solve_compiled} on this scratch. *)

val capped : scratch -> int
(** The {!solve_compiled} calls on this scratch that stopped at their
    [4 * (n + 2)]-round cap with some gate operand still changing; their
    outcome is the last round's values. *)
