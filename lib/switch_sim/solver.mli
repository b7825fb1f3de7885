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
  | Resistive_bridge of { node_a : int; node_b : int; resistance : float }
      (** Short with a finite resistance in units of the NMOS channel
          resistance: large values weaken the coupling until the bridge
          stops flipping logic (its critical resistance). *)

type t

val make :
  Network.t -> instances:int list -> modifications:modification list -> t
(** Build a region over the given cell instances.  Bridged nodes that are
    primary-input signals get an implicit strong external driver. *)

val nodes : t -> int list
(** Global ids of all nodes resolved by this region (charge state should be
    kept for these). *)

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

    This is the reference solver, kept as the oracle of {!solve_compiled}.
    Diagnostics: set the [DL_SOLVER_DEBUG] environment variable to trace
    every relaxation round (per-node rail distances, edge conduction) on
    stderr; it applies to this function only. *)

(** {2 Compiled regions}

    The production solver: {!solve} on a region lowered once into arrays,
    with results bit-identical to it.  Each relaxation round decides the
    rail passes by reachability and runs the exact shortest-path passes
    only when some node is driven definitely from both rails, since only
    then do the distances themselves matter. *)

type compiled

val compile : t -> compiled

val external_nodes : compiled -> int array
(** Global ids of the nodes whose values a compiled solve reads from
    outside the region (gate terminals, bridged PI drivers), in slot
    order. *)

val solved_nodes : compiled -> int array
(** Global ids of the nodes a compiled solve reports, in the order of
    [(solve t ...).values]. *)

val charged_count : compiled -> int
(** The solved nodes whose charge a solve can read: the first
    [charged_count] of {!solved_nodes}.  Pad-driven nodes are always
    driven. *)

type scratch
(** Working arrays, grown on demand; one per simulation run. *)

val scratch : unit -> scratch

val solve_compiled :
  compiled ->
  scratch ->
  ext:Ternary.t array ->
  charge:Ternary.t array ->
  out:Ternary.t array ->
  bool
(** [solve_compiled cr s ~ext ~charge ~out] reads [ext.(i)], the value of
    external slot [i], and [charge.(i)], the previous value of solved node
    [i]; it writes the value of solved node [i] into [out.(i)] and returns
    [fight].  Equal to {!solve} on the same inputs. *)
