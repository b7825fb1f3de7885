(** The fleet coordinator: speaks {!Dl_serve.Protocol} on its listen
    endpoint and relays each request to one of N registered worker
    daemons, chosen by consistent-hashing the request's stage key
    ({!Hash_ring}).

    Placement policy, in order:
    - the key's {e home} worker (ring successor) — so identical requests
      land on the node that already holds, or is already computing, the
      artifact;
    - {e work stealing}: when the home worker's load (coordinator-side
      in-flight + last probed queue depth) exceeds the least-loaded live
      worker's by more than [steal_margin], the cold worker takes the
      job — a hot shard spills instead of queueing;
    - a per-worker in-flight cap ([max_in_flight]); the relay blocks
      until some live worker is under its cap.

    Fault handling: a connect failure or mid-frame hangup ejects the
    worker and re-dispatches the request to the next live one (jobs are
    re-run, never lost — results are content-addressed so a re-run is
    bit-identical).  A background prober [Get_stats]s every worker each
    [probe_period_s]: repeated failures eject a node, one success
    readmits it and refreshes its queue depth.  A probe not answered
    within [probe_period_s] is a failure.

    Lifecycle: the same {!Dl_serve.Listener} as {!Dl_serve.Server} — a
    stale socket file is taken over, a live one refused, and a stop
    (SIGTERM/SIGINT under {!run}, a [Shutdown] request, or {!stop})
    drains: accepting stops, then every relay already in flight is given
    up to 10 s to bring its worker's answer back to its client.  A relay
    still waiting after that is cut off: its worker call is aborted and
    its client answered [Server_error]. *)

type config = {
  listen : Dl_serve.Transport.endpoint;
  workers : Dl_serve.Transport.endpoint list;
  max_in_flight : int;      (** Per-worker outstanding-dispatch cap. *)
  probe_period_s : float;
  fanout_stages : bool;
      (** Fan a [Submit] out as [serve-stage] waves ([atpg] + [layout-ifa],
          then [fault-sim] + [swift]) across the ring before relaying the
          final submit — the distributed store then serves the submit's
          stages as hits/fetches. *)
  max_frame : int;
  connect_timeout_s : float;
  steal_margin : int;
}

val config :
  ?max_in_flight:int -> ?probe_period_s:float -> ?fanout_stages:bool ->
  ?max_frame:int -> ?connect_timeout_s:float -> ?steal_margin:int ->
  listen:Dl_serve.Transport.endpoint ->
  workers:Dl_serve.Transport.endpoint list -> unit -> config
(** Defaults: 4 in-flight per worker, 1 s probes, no stage fan-out,
    {!Dl_serve.Protocol.default_max_frame}, 2 s connects, steal margin 2.
    @raise Invalid_argument on an empty worker list, a [max_in_flight]
    below 1, or a [probe_period_s] that is not positive (NaN included). *)

type t

val start : config -> t
(** Bind, start the listener and the health prober, return.  Workers
    need not be up yet — dispatch ejects the dead and the prober readmits
    them once they answer.
    @raise Failure on a live socket or a non-socket file at the path. *)

val bound : t -> Dl_serve.Transport.endpoint
(** Resolves an ephemeral [Tcp (host, 0)] listen port. *)

val workers_alive : t -> string list
(** Endpoint strings of workers currently considered live. *)

val stop : t -> unit
(** Drain (stop accepting, wait up to 10 s for every in-flight relay to
    write its answer, then cut off the rest), close the connections,
    unlink a Unix socket and join all threads, the prober included.
    Returns within about 10 s plus one probe period, even when a worker
    accepts connections and never answers; idempotent.  Workers are left
    running (they are independent daemons). *)

val run : ?on_ready:(t -> unit) -> config -> unit
(** {!start}, install SIGTERM/SIGINT handlers, call [on_ready], and block
    until a signal or a [Shutdown] request has drained the coordinator
    as {!stop} does — the body of [dlproj coord]. *)
