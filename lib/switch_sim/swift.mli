(** Switch-level fault simulation of realistic faults (the paper's *swift*
    tool): mixed-mode evaluation with the faulted region solved at switch
    level ({!Solver}) and the fault effect propagated downstream through
    three-valued gate-level simulation.

    Two detection mechanisms are recorded independently per fault:
    - *static voltage*: a primary output settles to a definite wrong value
      (the paper's baseline technique, responsible for [θmax < 1]);
    - *IDDQ*: the defect causes a quiescent rail-to-rail current
      (bridges/stuck-ons under opposing drive, floating-gate opens). *)

type detection = {
  voltage : int option;  (** First vector index detecting by voltage. *)
  iddq : int option;     (** First vector index detecting by current. *)
}

type result = {
  faults : Realistic.t array;
  detection : detection array;
  vectors_applied : int;
  region_solves : int;  (** Work metric: switch-level region evaluations. *)
}

val run :
  ?drop_when:[ `Voltage | `Both | `Never ] ->
  ?on_voltage_detect:(fault_index:int -> vector_index:int -> unit) ->
  Network.t ->
  faults:Realistic.t array ->
  vectors:bool array array ->
  result
(** Simulate every fault against the ordered vector sequence.  [drop_when]
    controls fault dropping: [`Voltage] stops simulating a fault once
    voltage-detected (fastest), [`Both] once both mechanisms have fired
    (default; exact first-detection data for both curves), [`Never] runs
    everything (dictionary-grade data).

    Each region is compiled once ({!Solver.compile}) and its solves are
    memoised per fault on the exact inputs a solve reads (external values
    and charge); the fault effect propagates through a reusable cone
    walker ({!Dl_logic.Propagate.Cone}).  [region_solves] counts logical
    region evaluations, a memo hit included.  Results are bit-identical to
    {!Reference.run}. *)

(** The original engine: a {!Solver.solve} per region evaluation and a
    {!Dl_logic.Propagate.run} per propagation.  Kept as the oracle of
    {!run}. *)
module Reference : sig
  val run :
    ?drop_when:[ `Voltage | `Both | `Never ] ->
    ?on_voltage_detect:(fault_index:int -> vector_index:int -> unit) ->
    Network.t ->
    faults:Realistic.t array ->
    vectors:bool array array ->
    result
end

val signal_of : Dl_cell.Mapping.network -> int -> int option
(** The circuit node of a network node, when it is a signal node (not a
    rail or a cell-internal node). *)

val weighted_coverage : result -> Dl_fault.Coverage.t
(** Θ(k): voltage-detection coverage weighted by fault weights (eq. 6). *)

val unweighted_coverage : result -> Dl_fault.Coverage.t
(** Γ(k): same detections with every fault weighted equally. *)

val iddq_weighted_coverage : result -> Dl_fault.Coverage.t
(** Θ(k) when an IDDQ measurement accompanies every vector (detection =
    earlier of voltage/current). *)

val signature : Network.t -> fault:Realistic.t -> vectors:bool array array -> bool array
(** Per-vector tester signature of one fault under the full ordered
    sequence ([true] = the vector fails), with charge continuity preserved
    for sequential (stuck-open) behaviour.  Input to diagnosis. *)

val good_values : Network.t -> bool array array -> bool array array
(** [good_values net vectors]: fault-free circuit response, one bool per
    circuit node per vector (gate-level; exposed for tests and examples). *)
