(** Deliberately buggy fault-simulation engines for the mutation self-test.
    Each mutant is built from the detection-event stream of
    {!Dl_fault.Fault_sim.Reference.run} [~drop_detected:false]: it takes
    as a fault's first detection the first event its mutation lets
    through.

    The self-test runs each mutant differentially against the real engines
    and asserts the harness finds and shrinks a counterexample — proving
    the checking subsystem would catch a real regression of the same
    shape. *)

open Dl_netlist

type mutation =
  | Pristine
      (** No mutation (every event counts); must be indistinguishable
          from the real engines (guards against a fault in the
          derivation itself). *)
  | Drop_fault_after_first_block
      (** Fault dropping gone wrong: every fault is retired after the
          first 64-vector block, detected or not (only events with vector
          < 64 count). *)
  | Truncate_detection_word
      (** The per-block detection word loses its high 32 bits (only
          events with vector [mod 64 < 32] count). *)

val all : (string * mutation) list
(** The real mutations (excluding {!Pristine}), with their display names. *)

val to_string : mutation -> string

val run :
  mutation ->
  Circuit.t ->
  faults:Dl_fault.Stuck_at.t array ->
  vectors:bool array array ->
  Dl_fault.Fault_sim.result
(** No-drop PPSFP simulation under the given mutation.  With [Pristine]
    the [first_detection] array is bit-for-bit what
    [Fault_sim.run ~drop_detected:false] produces ([gate_evaluations] is
    not maintained and reads 0). *)
