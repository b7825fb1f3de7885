(** n-detection test generation: random phase with per-fault quotas, PODEM
    top-up of under-quota faults, and quota-preserving compaction.

    The flow generalises {!Dl_atpg.Atpg}: random vectors are applied until
    every fault has been detected [n] times (or the budget/staleness limits
    hit), then faults still short of quota are re-targeted with PODEM and
    each deterministic vector is perturbed into additional *distinct*
    detecting vectors (fresh excitation) until the deficit is closed.  A
    reverse-order greedy pass then discards vectors while preserving each
    fault's achieved quota [min n (detections in the full set)]. *)

open Dl_netlist

type stats = {
  n : int;
  total_faults : int;
  untestable : int;
      (** Faults PODEM proved redundant (never detected, search exhausted). *)
  aborted : int;
      (** Never-detected faults abandoned at the backtrack limit. *)
  under_quota : int;
      (** Faults detected at least once but fewer than [n] times by the
          final set (top-up could not manufacture enough distinct
          detecting vectors). *)
  random_vectors : int;
  topup_vectors : int;
  final_vectors : int;  (** After compaction. *)
}

type result = {
  vectors : bool array array;
      (** Compacted sequence, original order preserved: random prefix then
          top-up suffix. *)
  counts : int array;
      (** Per-fault detection counts on [vectors], capped at [n]. *)
  stats : stats;
  untestable_faults : Dl_fault.Stuck_at.t array;
  aborted_faults : Dl_fault.Stuck_at.t array;
}

val run :
  ?seed:int ->
  ?max_random:int ->
  ?stale_limit:int ->
  ?backtrack_limit:int ->
  ?engine:Dl_fault.Fault_sim.engine ->
  n:int ->
  Circuit.t ->
  faults:Dl_fault.Stuck_at.t array ->
  result
(** Generate an n-detection test set for the fault list.  [seed] (default 7)
    drives both the random phase and the perturbation search; [max_random]
    (default 4096) caps the random prefix; [stale_limit] (default 512) stops
    the random phase after that many consecutive vectors without a counted
    detection; [engine] (default [Wide]) selects the simulation engine used
    throughout.  At [n:1] the structure matches the single-detection flow:
    the quota-preserving compaction preserves plain coverage exactly.
    Raises [Invalid_argument] if [n < 1]. *)

val compact_ndet :
  ?engine:Dl_fault.Fault_sim.engine ->
  Circuit.t ->
  faults:Dl_fault.Stuck_at.t array ->
  vectors:bool array array ->
  n:int ->
  bool array array * int array
(** Reverse-order greedy compaction preserving n-detection: returns the kept
    subsequence plus per-fault detection counts (capped at [n]) on it.  For
    every fault, the kept set detects it at least
    [min n (detections in the input set)] times — in particular plain
    ([n:1]) coverage is preserved exactly. *)
