(** Flat compiled circuit kernel: CSR adjacency + int opcodes + bigarray
    values, for allocation-free simulation hot loops.

    {!of_circuit} lowers a finalized {!Circuit.t} once into dense int arrays;
    after that a full 256-pattern circuit evaluation ({!run_into4}) performs
    zero minor-heap allocation — node values live in an [int64] bigarray
    whose reads, writes, and intermediate logic ops the native compiler keeps
    unboxed, and fanin indices come from a concatenated CSR slice instead of
    per-gate [Array.map]s.

    The record is exposed read-only so the fault simulator can run its own
    event-driven loop (with branch-fault pin overrides) directly against the
    same arrays; see [Fault_sim]. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A buffer of 64-pattern words: four per node id for {!run_into4}, one
    per fault-simulator scratch slot. *)

type t = private {
  circuit : Circuit.t;  (** The lowered circuit (names, node metadata). *)
  n : int;  (** Node count; all per-node arrays have this length. *)
  opcode : int array;  (** [Gate.opcode] per node. *)
  level : int array;  (** Longest path from any PI (shared with circuit). *)
  fanin_off : int array;
      (** CSR offsets, length [n+1]: node [i]'s fanin ids are
          [fanin.(fanin_off.(i)) .. fanin.(fanin_off.(i+1) - 1)], pin order. *)
  fanin : int array;  (** Concatenated fanin ids. *)
  fanout_off : int array;  (** CSR offsets for {!fanout}, length [n+1]. *)
  fanout : int array;  (** Concatenated fanout (reader) ids. *)
  inputs : int array;  (** Primary-input ids, declaration order. *)
  outputs : int array;  (** Primary-output ids, declaration order. *)
  gate_order : int array;  (** Topological order restricted to non-inputs. *)
  n_levels : int;  (** Circuit depth + 1. *)
  level_off : int array;
      (** Histogram CSR, length [n_levels+1]:
          [level_off.(l+1) - level_off.(l)] nodes sit at level [l].  Sizes the
          fault simulator's per-level scheduling stacks. *)
  ffr_stem : int array;
      (** Fanout-free-region partition: [ffr_stem.(i)] is the stem (root) of
          node [i]'s region.  A node is a stem iff its fanout count differs
          from 1 (branching signal, dead node, or a reader using it on two
          pins) or it is a primary output; every interior node reaches its
          stem through a unique chain of single-fanout links, so no signal
          inside a region reconverges before the stem.  [ffr_stem.(s) = s]
          for stems. *)
  ffr_index : int array;
      (** [ffr_index.(i)]: dense index (0 .. [n_ffrs]-1) of node [i]'s stem
          in {!ffr_stems} — the slot fault simulators use to memoize
          per-stem observability words. *)
  ffr_stems : int array;
      (** Stem node ids, ascending; length [n_ffrs]. *)
  n_ffrs : int;  (** Number of fanout-free regions (= number of stems). *)
}

val of_circuit : Circuit.t -> t
(** Lower a circuit.  Validates gate arity once (raising {!Circuit.Malformed}
    on violation) so every downstream evaluation can skip the check. *)

val alloc : int -> words
(** Fresh zero-filled word buffer of the given length. *)

(** {2 256-pattern evaluation}

    Four words per node: node [i]'s words live at [4i .. 4i+3], word [w]
    carrying patterns [64w .. 64w+63] of the block, so each CSR fanin walk
    amortizes over 256 patterns. *)

val create_words4 : t -> words
(** Zero-filled wide buffer, [4 * n] words. *)

val run_into4 : t -> words -> unit
(** Full-circuit evaluation: one linear pass over {!gate_order} against a
    wide buffer (PIs seeded first, e.g. [Sim2.load_patterns4]).  Word [w]
    of every node is bit-identical to [Sim2.run] over patterns
    [64w .. 64w+63].  Allocation-free.  Raises [Invalid_argument] on a
    buffer shorter than [4 * n]. *)
