(** The oracle registry: named differential and metamorphic checks.

    A [Case] check judges one generated {!Testcase} — typically by running
    two or more engines that must agree bit-for-bit.  A [Sweep] check is
    self-contained (a numeric equation sweep, or the cached-vs-uncached
    pipeline differential) and runs once per harness invocation.

    Checks return [None] for pass or [Some message] naming the first
    disagreement precisely enough to debug from. *)

type kind =
  | Case of (Testcase.t -> string option)
  | Sweep of (seed:int -> string option)

type t = { name : string; doc : string; kind : kind }

val all : t list
(** Every registered check, in display order:
    - ["sim2-flat"]: {!Dl_logic.Sim2.run} vs {!Dl_logic.Sim2.run_flat4}
      on every node, one 64-vector sub-word at a time, ragged tails
      masked;
    - ["fault-sim"]: {!Dl_fault.Fault_sim.run} and [run_parallel] (2 and
      3 domains, and a pool wider than the fault universe) vs the serial
      [Reference] engine, both drop modes: first detections and
      [on_detect] event streams;
    - ["event-propagate"]: {!Dl_logic.Propagate} from the previous
      vector's {!Dl_logic.Sim2.run_single} values vs a full
      {!Dl_logic.Sim2.run_single} across a vector sequence (also catches X
      leakage);
    - ["sim3-binary"]: {!Dl_logic.Sim3.run} equals two-valued simulation
      when no input is X;
    - ["coverage-monotone"], ["collapse-classes"]: case-level metamorphic
      properties (see {!Metamorphic});
    - ["eq11-wb"], ["eq9-theta"], ["eq11-dl"], ["yield-weights"],
      ["required-coverage"]: equation sweeps (see {!Metamorphic});
    - ["experiment-cache"]: cached and uncached
      {!Dl_core.Experiment.run} produce identical results and a warm
      cache hits every stage;
    - ["serve-loopback"]: an answer served by {!Dl_serve.Server} over a
      Unix-socket loopback is bit-identical to a direct
      {!Dl_core.Experiment.run} of the same config, and an identical
      resubmission is coalesced, not re-executed;
    - ["mc-poisson-limit"]: {!Dl_core.Wafer_mc.simulate} with both alphas
      infinite recovers the Poisson closed form
      {!Dl_core.Weighted.defect_level} within the per-wafer sampling
      error, with ordered band quantiles;
    - ["mc-clustered-consistency"]: single-level clustered simulation
      matches {!Dl_core.Clustered.defect_level} against the implied
      negative-binomial yield for several alphas;
    - ["bootstrap-coverage"]: the 90% {!Dl_core.Bootstrap} intervals on
      [(R, θmax)] cover a synthetic eq. 9 ground truth in at least 7 of
      12 independent trials;
    - ["ndet-1detect"]: {!Dl_fault.Fault_sim.run_ndet} at [drop_after:1]
      is bit-identical to the dropping single-detection run on every
      engine, with an equal n = 1 coverage curve;
    - ["ndet-monotone"]: a lower quota is a pure truncation of a higher
      one (counts, k-th detection indices), per-fault detection indices
      strictly increase in k, and T{_n}(k) is pointwise non-increasing
      in n;
    - ["ndet-dl-monotone"]: the {!Dl_core.Dl_n} table over a synthetic
      weighted Θ stand-in has DL@T* non-increasing and k@T*
      non-decreasing in n, every row reaching the shared target;
    - ["swift-reference"]: {!Dl_switch.Swift.run}, serially and on two
      domains, is bit-identical to [Swift.Reference.run] on the realistic
      faults extracted from the case's circuit (decompose, flatten,
      synthesize, IFA): detections and [region_solves] under every drop
      mode, memo counters equal between the two runs, and one fault's
      {!Dl_switch.Swift.signature};
    - ["swift-observability"]: the {!Dl_switch.Swift.observability} table
      of every node of the case's circuit over its vectors equals, bit for
      bit, a {!Dl_logic.Propagate} walk of each node's flip against the
      fault-free values;
    - ["podem-reference"]: {!Dl_atpg.Podem.run} on one compiled context
      equals [Podem.Reference.generate] (outcome and vector) on every
      collapsed fault of the case's circuit after
      {!Dl_netlist.Transform.decompose_for_cells}, at backtrack limits 100
      and 3, so searches both finish and abort into the randomized
      restarts;
    - ["projection-reference"]: {!Dl_fault.Coverage.make} equals
      [Coverage.Reference.make] on the case's first detections, with unit
      and with random weights ([at] at every k, [detections_in_order],
      [final]), and {!Dl_core.Projection.fit_theta} / [fit_theta_from]
      equal [Projection.Reference]'s fits of the sampled (T, Θ) points:
      R, θmax and rmse, bit for bit. *)

val find : string -> t option
val names : unit -> string list
