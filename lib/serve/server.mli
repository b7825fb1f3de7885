(** The projection daemon: {!Dl_core.Experiment.run} behind a
    {!Listener} (Unix domain or TCP), admitting jobs through {!Job_queue}.

    Threads: the {!Listener}'s accept, connection and supervisor threads
    (a connection thread decodes a frame, admits the job, blocks in
    {!Job_queue.await} and writes its own response); and [workers]
    scheduler threads, each owning one long-lived {!Dl_util.Parallel}
    pool ({!Dl_util.Parallel.t} is not re-entrant, so pools are never
    shared) that {!Dl_core.Experiment.run} reuses across jobs.

    Drain-then-exit is the {!Listener}'s; the server's part of it is to
    stop admitting (submissions now get [Rejected]) and let the workers
    finish every queued and running job before the listener waits for
    each connection to write out the response it owes. *)

type config = {
  listen : Transport.endpoint;
  workers : int;            (** Scheduler threads = concurrent jobs. *)
  queue_capacity : int;     (** Bound on queued (not running) jobs. *)
  cache_capacity : int;     (** Completed-result cache entries. *)
  domains_per_worker : int; (** Size of each worker's domain pool. *)
  cache_dir : string option;  (** Artifact store for the stage graph and
                                  the [Store_get]/[Store_put] peer tier. *)
  max_frame : int;
  remote : Dl_store.Stage.remote option;
      (** Peer store tier threaded into every job's experiment config —
          how a cluster worker fetches artifacts it misses locally
          ({!Dl_cluster} constructs this). *)
  on_job_start : (string -> unit) option;
      (** Test hook: called with the queue key (["full/<request key>"] or
          ["stage/<stage key>"]) just before a job executes (after
          dispatch, before any stage runs). *)
}

val config :
  ?workers:int -> ?queue_capacity:int -> ?cache_capacity:int ->
  ?domains_per_worker:int -> ?cache_dir:string -> ?max_frame:int ->
  ?remote:Dl_store.Stage.remote ->
  ?on_job_start:(string -> unit) -> listen:Transport.endpoint -> unit ->
  config
(** Defaults: 1 worker, queue 16, cache 32,
    [Dl_util.Parallel.default_domains ()] domains per worker,
    {!Protocol.default_max_frame}, no peer tier.
    @raise Invalid_argument if [workers < 1], or if [workers] pools of
    [domains_per_worker] could exceed {!Dl_util.Parallel.max_domains}. *)

type t

val start : config -> t
(** Start the workers and the {!Listener} ({!Listener.start} says how a
    stale or live socket file is handled).
    @raise Failure on a live socket or a non-socket file at the path.
    @raise Unix.Unix_error on bind/listen failures. *)

val listener : t -> Listener.t
(** What {!Dl_cluster.Worker.run} serves through. *)

val bound : t -> Transport.endpoint
(** The endpoint actually listening — binding [Tcp (host, 0)] resolves to
    the kernel-assigned port. *)

val stop : t -> unit
(** Drain gracefully and block until the server has fully shut down.
    Idempotent. *)

val stats : t -> Protocol.stats

val run : ?on_ready:(t -> unit) -> config -> unit
(** {!start}, then {!Listener.run}: SIGTERM/SIGINT drain the server, and
    [on_ready] (the CLI's "serving on ..." banner) runs after the socket
    is live, so a bind failure never claims to serve. *)
