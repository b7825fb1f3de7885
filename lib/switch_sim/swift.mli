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
  detection : detection array;  (** Parallel to the simulated faults. *)
  vectors_applied : int;
  region_solves : int;  (** Work metric: switch-level region evaluations. *)
}

type memo_stats = {
  mutable shapes : int;  (** Distinct compiled region shapes. *)
  mutable full_hits : int;  (** Solves answered under their (ext, charge) key. *)
  mutable ext_only_hits : int;
      (** Solves answered by an outcome that held for any charge. *)
  mutable misses : int;  (** Solves computed (or not memoisable). *)
  mutable rounds : int;  (** Relaxation rounds of the computed solves. *)
  mutable feedback_capped : int;
      (** Region evaluations (fault, vector) whose feedback loop stopped at
          its 8-pass cap with a region input still changing; the last
          pass's values stand. *)
  mutable rounds_capped : int;
      (** Computed solves stopped at {!Solver.solve_compiled}'s
          [4 * (n + 2)]-round cap ({!Solver.capped}). *)
}
(** Memo counters of {!run}, summed over the runs they are passed to. *)

val memo_stats : unit -> memo_stats
(** All zero. *)

val run :
  ?drop_when:[ `Voltage | `Both | `Never ] ->
  ?on_voltage_detect:(fault_index:int -> vector_index:int -> unit) ->
  ?memo_stats:memo_stats ->
  ?domains:int ->
  ?pool:Dl_util.Parallel.t ->
  Network.t ->
  faults:Realistic.t array ->
  vectors:bool array array ->
  result
(** Simulate every fault against the ordered vector sequence.  [drop_when]
    controls fault dropping: [`Voltage] stops simulating a fault once
    voltage-detected (fastest), [`Both] once both mechanisms have fired
    (default; exact first-detection data for both curves), [`Never] runs
    everything (dictionary-grade data).  Under [`Both], a definite
    ([Floats_low]/[Floats_high]) open stops once voltage-detected, since
    it never draws current, unless [on_voltage_detect] is given.  A
    [Floats_unknown] open is never voltage-detected, so it is recorded
    IDDQ-detected at the first vector without being simulated.

    Faults are simulated one at a time over the vectors.  They are
    grouped into tasks, one per region shape and one per open, which the
    workers of a domain pool claim dynamically ([domains] defaults to
    {!Dl_util.Parallel.default_domains}, clamped to the task count; pass
    [pool] to reuse an existing pool, in which case [domains] is
    ignored).  Each worker has its own buffers, solver scratch and cone
    walker.  The result, [memo_stats] and the [on_voltage_detect] events
    (buffered and replayed in the calling domain, in increasing vector
    and then fault index) are identical for any pool size.

    Each region is lowered once ({!Solver.lower}); regions with equal
    compiled arrays share one shape, and each shape has one solve memo,
    shared by all its faults within the shape's task, keyed on the exact
    inputs a solve reads (external values and charge).  An outcome computed
    without reading charge is stored under an ext-only key and answers
    for any charge.  The fault effect propagates through a reusable cone
    walker ({!Dl_logic.Propagate.Cone}).  [region_solves] counts logical
    region evaluations, a memo hit included.  Results are bit-identical to
    {!Reference.run}.  [memo_stats], when given, is incremented by this
    run's counts. *)

val shape_ids : Network.t -> Realistic.t array -> int array
(** The shape id {!run} gives each fault's region ([-1] for interconnect
    opens, which have none): faults with equal ids share a memo. *)

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

val weighted_coverage : weights:float array -> detection array -> Dl_fault.Coverage.t
(** Θ(k): voltage-detection coverage, fault [i] weighing [weights.(i)]
    (eq. 6). *)

val unweighted_coverage : detection array -> Dl_fault.Coverage.t
(** Γ(k): the same detections with every fault weighted equally. *)

val iddq_weighted_coverage :
  weights:float array -> detection array -> Dl_fault.Coverage.t
(** Θ(k) when an IDDQ measurement accompanies every vector (detection =
    earlier of voltage/current). *)

val signature : Network.t -> fault:Realistic.t -> vectors:bool array array -> bool array
(** Per-vector tester signature of one fault under the full ordered
    sequence ([true] = the vector fails), with charge continuity preserved
    for sequential (stuck-open) behaviour. *)

val good_values : Network.t -> bool array array -> bool array array
(** [good_values net vectors]: fault-free circuit response, one bool per
    circuit node per vector (gate-level; exposed for tests and examples). *)
