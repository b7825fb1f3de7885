(** PODEM (Goel 1981): complete branch-and-bound deterministic test
    generation for single stuck-at faults, with SCOAP-guided backtrace.

    Stands in for the FAN generator the paper used; both are complete
    stuck-at ATPG algorithms and the defect-level experiment only consumes
    the resulting vector sequence (see DESIGN.md §4). *)

open Dl_netlist

type outcome =
  | Test of bool array
      (** A vector (one bool per PI, [c.inputs] order) detecting the fault;
          don't-care positions are filled deterministically with 0. *)
  | Untestable  (** Search space exhausted: the fault is redundant. *)
  | Aborted  (** Backtrack limit hit before a verdict. *)

type ctx
(** A circuit lowered once for test generation ({!Kernel} CSR adjacency and
    opcodes, SCOAP costs, level buckets) plus the mutable good/faulty value
    arrays and search buffers every {!run} reuses.  Not safe to share
    between domains. *)

val compile : scoap:Scoap.t -> Circuit.t -> ctx
(** Lower a circuit once; compile once per ATPG run, not once per fault. *)

val run : ?backtrack_limit:int -> ?restarts:int -> ctx -> Dl_fault.Stuck_at.t -> outcome
(** [run ctx fault] runs PODEM for one fault.  [backtrack_limit] defaults
    to 10_000 per attempt; after an abort the search restarts with
    randomized tie-breaking, up to [restarts] (default 4) extra attempts.
    Implication is event-driven: after each decision or backtrack only the
    fanout cones of the changed inputs are re-evaluated, both machines in
    one level-ordered pass.  Every returned [Test] vector is verified by
    {!Dl_fault.Fault_sim.detects_fault} before being reported.  Outcomes
    and vectors are identical to {!Reference.generate}.
    @raise Invalid_argument when the fault site is outside the circuit. *)

val generate :
  ?backtrack_limit:int ->
  ?restarts:int ->
  ?scoap:Scoap.t ->
  Circuit.t ->
  Dl_fault.Stuck_at.t ->
  outcome
(** [generate c fault] is {!run} on a context compiled for this one call
    (computing SCOAP unless [scoap] is given). *)

(** The original engine: two full {!Dl_logic.Sim3} passes, a sorted
    D-frontier list and a fresh X-path search per decision.  Kept as the
    oracle of {!run}. *)
module Reference : sig
  val generate :
    ?backtrack_limit:int ->
    ?restarts:int ->
    ?scoap:Scoap.t ->
    Circuit.t ->
    Dl_fault.Stuck_at.t ->
    outcome
end
