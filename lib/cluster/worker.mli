(** A cluster worker: a {!Dl_serve.Server} whose stage graph is wired to
    the peer store tier.

    On a local stage miss the worker asks the key's home node (then the
    next distinct ring member) via [store-get] before computing; a
    computed artifact is pushed to its home node via [store-put].  Both
    directions are best-effort with short timeouts and a per-peer failure
    cooldown, so a dead peer degrades the cluster to local computing
    instead of hanging it. *)

type t

val start :
  ?workers:int -> ?queue_capacity:int -> ?cache_capacity:int ->
  ?domains_per_worker:int -> ?max_frame:int ->
  ?on_job_start:(string -> unit) -> ?cache_dir:string ->
  listen:Dl_serve.Transport.endpoint -> unit -> t
(** Start serving.  Without [cache_dir] there is no local store, so the
    peer tier still answers [store-get] misses but nothing persists.
    Binding [Tcp (host, 0)] picks an ephemeral port — read it back with
    {!bound}. *)

val bound : t -> Dl_serve.Transport.endpoint

val set_peers : t -> Dl_serve.Transport.endpoint list -> unit
(** Install the fleet membership (usually every worker {e including} this
    one; self is recognized by endpoint equality and skipped).  Callable
    any time — late binding exists because ephemeral ports are only known
    after every worker has started. *)

val stop : t -> unit
(** Graceful drain ({!Dl_serve.Server.stop}). *)

val run : ?on_ready:(t -> unit) -> t -> unit
(** Serve a started worker until SIGTERM/SIGINT or a [Shutdown] request
    drains it ({!Dl_serve.Listener.run}); [on_ready] runs once the
    handlers are in place — the body of [dlproj serve --peer]. *)
