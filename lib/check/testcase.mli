(** A randomized differential-testing case: one generated circuit plus the
    vector sequence and stuck-at fault set every engine pair is run on.

    The tuple [(circuit, vectors, faults, seed)] is the unit the harness
    generates, the oracles judge, and the shrinker minimizes. *)

open Dl_netlist

type t = {
  seed : int;                        (** Generation seed (provenance). *)
  circuit : Circuit.t;
  vectors : bool array array;        (** One bool per PI, [inputs] order. *)
  faults : Dl_fault.Stuck_at.t array;
}

val generate :
  ?family:string -> seed:int -> gates:int -> n_vectors:int -> unit -> t
(** Deterministically build a case: a random DAG of about [gates] gates
    (4-8 PIs, 2-4 POs, NAND-rich mix), [n_vectors] uniform vectors, and the
    full uncollapsed stuck-at universe.  All randomness flows from
    {!Dl_util.Seeds} streams rooted at [seed], so circuit shape and vectors
    are replayable in isolation.  [family] selects a named
    {!Dl_netlist.Generator.Family} workload class instead of the default
    NAND-rich mix.
    @raise Invalid_argument for an unregistered [family] name. *)

val with_circuit : t -> Circuit.t -> int option array -> t
(** Replace the circuit (after surgery), remapping the fault set through
    the map.  Vectors are kept: PI count and order are stable under the
    shrinker's transformations. *)

val with_vectors : t -> bool array array -> t
val with_faults : t -> Dl_fault.Stuck_at.t array -> t

val pp : Format.formatter -> t -> unit
(** One-line case description (seed, sizes). *)

(** {2 Repro files}

    A failing case persists as [<name>.bench] (the circuit, ISCAS-85
    syntax) plus [<name>.repro] (check name, failure message, seed,
    vectors as 0/1 rows, faults in {!Dl_fault.Stuck_at.to_string} syntax),
    and loads back for replay. *)

val save_repro :
  dir:string -> name:string -> check:string -> message:string -> t -> string
(** Write both files (creating [dir] if needed); returns the [.repro]
    path. *)

type repro = { case : t; check : string; message : string }

val load_repro : string -> repro
(** Parse a [.repro] file (and the [.bench] beside it).
    @raise Invalid_argument or [Sys_error] on malformed input. *)
