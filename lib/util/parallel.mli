(** A reusable fixed-size domain pool (OCaml 5 [Domain]) for data-parallel
    loops over independent work items.

    The pool owns [size - 1] worker domains; the calling domain is the
    remaining worker, so [create ~domains:1] degenerates to a plain serial
    loop with no domain ever spawned.  Tasks are distributed dynamically
    (an atomic cursor over the index range), which balances shards of
    uneven cost; determinism of the *results* is therefore the caller's
    job — write each task's output to a slot owned by its index and merge
    in index order.

    A pool is cheap to keep around and reusable across many [run]/[map]
    calls, but it is not re-entrant: issue one batch at a time from a
    single domain. *)

type t

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], the pool size used when
    [?domains] is omitted. *)

val max_domains : int
(** 128, the runtime's limit on domains alive at once (the calling domain
    included). *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (default
    {!default_domains}), after a minor collection of the calling domain.
    @raise Invalid_argument if [domains < 1] or [domains > max_domains],
    before any domain is spawned. *)

val size : t -> int
(** Number of workers, including the calling domain. *)

val run : t -> tasks:int -> (int -> unit) -> unit
(** [run t ~tasks f] evaluates [f 0 .. f (tasks - 1)], each exactly once,
    distributed over the pool; returns when all have completed.  If one or
    more tasks raise, the remaining tasks still run and one of the
    exceptions is re-raised in the caller. *)

val map : t -> tasks:int -> (int -> 'a) -> 'a array
(** [map t ~tasks f] is [[| f 0; ...; f (tasks - 1) |]] computed in
    parallel (results placed by index, so the output order is
    deterministic regardless of scheduling). *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool must not be used
    afterwards. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down on exit,
    including on exception. *)
