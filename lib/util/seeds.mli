(** Master-seed registry handing out isolated, replayable RNG streams
    keyed by hierarchical path.

    Every subsystem that consumes randomness names its stream with a
    slash-separated path (e.g. ["bench-serve/client-3/req-17"]) and gets a
    splitmix64 generator that is a {e pure function of (master seed, path)}:

    - {b replayable} — the same master seed and path always yield the same
      stream, across processes and platforms;
    - {b disjoint} — distinct paths yield statistically independent
      streams (the path is folded through a 64-bit avalanche mix, so even
      sibling paths like [".../req-16"] and [".../req-17"] share nothing);
    - {b order-independent} — deriving a stream neither consumes state
      from nor perturbs the registry, so the set of streams a run uses,
      and the order it asks for them in, cannot change any stream's
      contents.  This is what makes a multi-threaded load generator
      deterministic: each request's randomness depends only on its own
      path, never on scheduling.

    [scope] pre-applies a path prefix, giving a subsystem its own registry
    view without sharing the master: [stream (scope t "atpg") "random"]
    equals [stream t "atpg/random"]. *)

type t
(** An immutable registry handle (master seed plus path prefix). *)

val create : int -> t
(** [create master_seed] roots a registry at an arbitrary integer seed. *)

val scope : t -> string -> t
(** [scope t segment] is the registry with [segment] appended to the path
    prefix.  Scoping is associative: [scope (scope t "a") "b"] names the
    same streams as [scope t "a/b"]. *)

val stream : t -> string -> Rng.t
(** [stream t path] is the stream named by [path] under [t]'s prefix —
    a fresh, independently advancing generator on every call (two calls
    return equal but independent streams). *)

val seed : t -> string -> int
(** [seed t path] is a 62-bit non-negative integer seed derived the same
    way as {!stream} — for APIs that take an [int] seed rather than an
    {!Rng.t}.  Equal to [seed] of the same path every time; distinct paths
    give distinct seeds with overwhelming probability. *)

val fingerprint : t -> string -> int64
(** The raw 64-bit digest of [(master, prefix, path)] that {!stream} and
    {!seed} are built from — exposed for tests and trace records. *)
