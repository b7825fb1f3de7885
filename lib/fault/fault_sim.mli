(** Parallel-pattern single-fault-propagation (PPSFP) stuck-at fault
    simulation with optional fault dropping: one production engine
    ([Wide]: 256 test vectors per pass, fanout-free-region inference) and
    the retained explicit-propagation oracle it is pinned against
    ({!Reference}: 64 vectors per pass).

    This produces the [T(k)] data of the paper's Fig. 4/5 at gate level.

    Every entry point validates its fault list before simulating: a stem id
    outside [[0, node_count)], a branch on a node outside that range, or a
    branch pin not below its gate's fanin count raises [Invalid_argument]
    with a one-line message naming the fault. *)

open Dl_netlist

(** Per-run engine counters, for performance accounting ([--sim-stats],
    bench JSON).  Counter semantics are engine-specific by design — [Wide]
    toggles stems instead of simulating faults — but detection results
    never are.  [Reference] reports only [gate_evaluations] and
    [faults_dropped]. *)
module Stats : sig
  type t = {
    gate_evaluations : int;
        (** Faulty-machine gate evaluations, in 64-pattern units (a wide
            4-word gate fetch counts 4). *)
    events : int;  (** Worklist pops in [Wide]'s stem-toggle simulations. *)
    faults_inferred : int;
        (** Fault/block decisions made by FFR critical-path tracing. *)
    faults_simulated : int;
        (** Always 0: no engine decides faults by counted per-fault
            propagation any more.  Kept because the cached detection and
            n-detect profile artifacts serialize all six counters, and
            dropping one would change the codec and so every stage key. *)
    stem_simulations : int;
        (** Stem-toggle observability simulations ([Wide]). *)
    faults_dropped : int;
        (** Faults retired by fault dropping (= detected faults when
            [drop_detected], 0 otherwise). *)
  }

  val zero : t
  val add : t -> t -> t

  val pp : Format.formatter -> t -> unit
  (** One-line human-readable rendering. *)
end

type result = {
  faults : Stuck_at.t array;       (** As supplied, same order. *)
  first_detection : int option array;
      (** [first_detection.(i)]: index (0-based) of the first vector that
          detects fault [i], or [None] if undetected by the set. *)
  vectors_applied : int;
  gate_evaluations : int;          (** Faulty-machine gate evaluations. *)
  stats : Stats.t;                 (** Engine counters for this run. *)
}

(** PPSFP engines.  Both produce bit-identical [faults],
    [first_detection], [vectors_applied], and [on_detect] event streams on
    the same inputs; they differ only in speed and in counter semantics:

    - [Reference]: the allocating explicit-propagation engine, 64 vectors
      per pass (the oracle; also {!Reference.run}).
    - [Wide]: the production engine — what {!run} and {!run_parallel}
      dispatch to.  Per 256-vector block, one stem-toggle simulation per
      fanout-free region hosting a live fault plus one critical-path trace
      per fault; no per-fault propagation at all.  Allocation-free in
      steady state. *)
type engine = Reference | Wide

val engines : engine list
(** All variants, [Reference] first. *)

val engine_to_string : engine -> string
val engine_of_string : string -> engine option

val run :
  ?drop_detected:bool ->
  ?on_detect:(fault_index:int -> vector_index:int -> unit) ->
  Circuit.t ->
  faults:Stuck_at.t array ->
  vectors:bool array array ->
  result
(** [run c ~faults ~vectors] simulates every fault against the vector
    sequence.  With [drop_detected] (default [true]) a fault is not
    simulated after its first detection — the standard production mode; set
    it to [false] to observe every detection (e.g. for dictionaries, via
    [on_detect], which fires once per fault/vector detection event in
    increasing vector order per fault).

    Runs the [Wide] engine ([run_with ~engine:Wide]) on the circuit
    lowered once into {!Dl_netlist.Kernel} CSR int arrays.  Results are
    bit-for-bit identical to {!Reference.run}. *)

val run_parallel :
  ?drop_detected:bool ->
  ?on_detect:(fault_index:int -> vector_index:int -> unit) ->
  ?domains:int ->
  ?pool:Dl_util.Parallel.t ->
  Circuit.t ->
  faults:Stuck_at.t array ->
  vectors:bool array array ->
  result
(** Multicore [run]: the fault array is sharded contiguously across a
    domain pool ([domains] defaults to
    [Domain.recommended_domain_count ()]; pass [pool] to reuse an existing
    {!Dl_util.Parallel} pool across calls, in which case [domains] is
    ignored).  Each worker keeps private scratch state while the circuit
    and the good-machine words of each 64-vector block are shared
    read-only, and per-fault results are merged back in fault-index order.

    The result is bit-for-bit identical to [run] on the same inputs:
    [first_detection] and [stats] are equal, and [on_detect] fires the same
    events in the same order (events are buffered per block and replayed
    in the serial order).  The callback runs in the calling domain only.

    Degenerate inputs are first-class: an empty fault universe returns
    immediately (no good-machine simulation); a [domains] request wider
    than the fault universe is clamped before any domain is spawned (and a
    caller-supplied [pool] wider than the universe is sharded at one fault
    per worker, surplus workers idle); ragged tail blocks behave
    identically to [run]. *)

(** The pre-kernel PPSFP engine, retained verbatim as the oracle for
    property-testing [Wide] (and as the baseline of the bench's kernel
    section).  Same semantics as {!run}; serial only; allocates per gate
    evaluation.  Does not validate its fault list ({!run_with}
    [~engine:Reference] does). *)
module Reference : sig
  val run :
    ?drop_detected:bool ->
    ?on_detect:(fault_index:int -> vector_index:int -> unit) ->
    Circuit.t ->
    faults:Stuck_at.t array ->
    vectors:bool array array ->
    result
end

val run_with :
  engine:engine ->
  ?drop_detected:bool ->
  ?on_detect:(fault_index:int -> vector_index:int -> unit) ->
  Circuit.t ->
  faults:Stuck_at.t array ->
  vectors:bool array array ->
  result
(** [run] under an explicit engine ([run_with ~engine:Wide] = [run]).
    Detection results are engine-independent; see {!engine} for the counter
    contract per engine. *)

val run_parallel_with :
  engine:engine ->
  ?drop_detected:bool ->
  ?on_detect:(fault_index:int -> vector_index:int -> unit) ->
  ?domains:int ->
  ?pool:Dl_util.Parallel.t ->
  Circuit.t ->
  faults:Stuck_at.t array ->
  vectors:bool array array ->
  result
(** [run_parallel] under an explicit engine.  Bit-identical to
    [run_with ~engine] on the same inputs regardless of worker count —
    including [stats] totals: [Wide] toggles each needed stem exactly once
    per block in a separate phase before fault tracing, so sharding never
    changes what work is done, only who does it.  [Reference] has no
    pooled driver and runs {!Reference.run} serially whatever
    [domains]/[pool] say. *)

val lowest_set_bit : int64 -> int option
(** Index (0-63) of the least-significant set bit, [None] for [0L].
    Constant-time de Bruijn bit scan (exposed for testing). *)

val detected_count : result -> int

val coverage : result -> float
(** Final fault coverage [m/n]. *)

val detects_fault : Circuit.t -> Stuck_at.t -> bool array -> bool
(** [detects_fault c f v]: single-vector oracle via dual ternary
    simulation; independent of the PPSFP machinery (used for
    cross-checking). *)

(** {1 Multi-detect simulation}

    n-detection generalises dropping from "first detection" to "first
    [drop_after] detections": a fault stays in the simulated set until it
    has been observed at [drop_after] distinct vectors.  The profile below
    is the substrate for the {!Dl_ndet} subsystem's T{_n}(k) coverage
    curves and DL(n) projections. *)

type ndet = {
  drop_after : int;  (** the detection quota n (>= 1) *)
  counts : int array;
      (** per-fault detection count, capped at [drop_after] *)
  detections : int array;
      (** row-major [n_faults * drop_after]: slot [f * drop_after + k] holds
          the vector index of fault [f]'s (k+1)-th detection, or [-1] if the
          fault was detected fewer than [k+1] times *)
  vectors_applied : int;
  gate_evaluations : int;
  stats : Stats.t;
      (** accumulated engine counters; [faults_dropped] is the number of
          faults that reached the full [drop_after] quota *)
}

val run_ndet :
  ?engine:engine ->
  ?domains:int ->
  ?pool:Dl_util.Parallel.t ->
  ?on_detect:(fault_index:int -> vector_index:int -> unit) ->
  drop_after:int ->
  Circuit.t ->
  faults:Stuck_at.t array ->
  vectors:bool array array ->
  ndet
(** Simulate until each fault has been detected [drop_after] times (or the
    vectors run out), recording every k-th detection index, per fault in
    [faults] order.  Implemented as a chunked driver over {!run_with}/{!run_parallel_with} with dropping
    disabled inside each engine-native block, refreshing the live-fault set
    at block boundaries — exactly the granularity at which the dropping
    engines refresh theirs, so [drop_after:1] reproduces
    [run ~drop_detected:true] bit-for-bit on every engine: identical first
    detections and an identical counted [on_detect] event stream.
    [on_detect] fires only for counted detections (at most [drop_after] per
    fault), in the underlying engine's replay order with chunk-global
    vector indices.  [engine] defaults to [Wide]; [domains]/[pool] select
    its parallel path (one pool is created up front and reused across all
    chunks; [Reference] runs serially and creates none).  Raises
    [Invalid_argument] if [drop_after < 1] or a fault is out of range. *)

val ndet_kth_detection : ndet -> k:int -> int option array
(** Vector index of each fault's k-th detection (1-based [k]), [None] where
    the fault was detected fewer than [k] times.  [k:1] is the
    [first_detection] array of the equivalent single-detection run.
    Raises [Invalid_argument] unless [1 <= k <= drop_after]. *)

val ndet_first_detection : ndet -> int option array
(** [ndet_kth_detection ~k:1]. *)
