(** Two-valued compiled simulation, 64 patterns per machine word.

    This is the workhorse behind parallel-pattern fault simulation: bit [i]
    of every word carries pattern [i] through the whole circuit. *)

open Dl_netlist

val run : Circuit.t -> int64 array -> int64 array
(** [run c pi_words] evaluates the circuit; [pi_words] has one word per
    primary input in [c.inputs] order.  Returns one word per node, indexed
    by node id.

    This is the {e reference} engine: simple, allocating, and retained as
    the oracle the flat-kernel path is property-tested against.  Hot loops
    should use {!run_flat4} over a {!Kernel.t}. *)

(** {2 Flat-kernel path}

    Allocation-free pipeline: lower once with {!Kernel.of_circuit}, allocate
    a buffer with {!Kernel.create_words4}, then per 256-pattern block call
    {!load_patterns4} followed by {!run_flat4}. *)

val load_patterns4 :
  Kernel.t -> Kernel.words -> bool array array -> base:int -> count:int -> unit
(** [load_patterns4 k buf vectors ~base ~count] transposes the [count]
    (≤ 256) test vectors starting at [vectors.(base)] directly into the PI
    word slots of a {!Kernel.create_words4} buffer — bit [b] of sub-word
    [w] of each PI is vector [base + 64w + b] — zero-filling the tail, so
    each sub-word equals {!words_of_patterns} over its 64 vectors.  Raises
    [Invalid_argument] on a count outside [0..256], a slice outside
    [vectors], a pattern of the wrong width, or a buffer shorter than
    [4 * k.n]. *)

val run_flat4 : Kernel.t -> Kernel.words -> unit
(** 256-pattern evaluation over a wide buffer (= {!Kernel.run_into4}).
    Sub-word [w] of every node is bit-identical to {!run} over patterns
    [64w .. 64w+63] of the block, with zero per-gate allocation. *)

val run_single : Circuit.t -> bool array -> bool array
(** Single-pattern convenience wrapper (one bool per PI, returns one bool
    per node). *)

val output_bits : Circuit.t -> bool array -> bool array
(** Single-pattern primary-output response. *)

val random_words : Dl_util.Rng.t -> Circuit.t -> int64 array
(** Fresh fully-random PI words (64 random patterns). *)

val pattern_of_words : Circuit.t -> int64 array -> int -> bool array
(** Extract pattern [bit] (0..63) from PI words as a bool vector. *)

val words_of_patterns : Circuit.t -> bool array array -> int64 array
(** Pack up to 64 patterns (each one bool per PI) into words; missing high
    patterns are zero-filled. *)
