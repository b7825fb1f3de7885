(** The daemon lifecycle shared by {!Server} and the fleet coordinator
    ({!Dl_cluster.Coord}): a stream-socket listener ({!Transport}) that
    decodes {!Protocol} requests and writes whatever the caller's
    [handle] answers.

    Thread anatomy: one accept thread; one thread per connection (it
    decodes a frame, calls [handle] and writes the response itself); one
    supervisor that turns a stop request (signal flag, [Shutdown]
    request, or {!stop}) into the drain.

    Drain-then-exit: stop accepting, run the caller's [drain] hook, wait
    up to 10 s for every connection to write the response it owes (if
    one still has not and the caller gave a [cut_off] hook, run it and
    wait up to 1 s more), then close the connections, join their threads
    and unlink the socket. *)

type t

val start :
  ?max_frame:int -> ?drain:(unit -> unit) -> ?cut_off:(unit -> unit) ->
  handle:(Protocol.request -> Protocol.response) -> Transport.endpoint -> t
(** Bind and serve.  A stale Unix-socket file (left by a crashed daemon)
    is removed after probing that nothing answers on it; a {e live}
    socket, or a path that is not a socket, raises [Failure] instead.
    [handle] runs on connection threads, concurrently; an exception it
    raises is answered as [Server_error].  After a [Shutdown] request is
    answered the listener drains.  [drain] (default: nothing) runs once
    accepting has stopped and before the wait for pending responses —
    the {!Server} finishes its queued and running jobs there.  [cut_off]
    (default: none) runs when the drain's wait ends with a handler still
    running; it must make every running [handle] return soon — the
    coordinator aborts its worker calls there.
    @raise Unix.Unix_error on bind/listen failures. *)

val bound : t -> Transport.endpoint
(** The endpoint actually listening — binding [Tcp (host, 0)] resolves to
    the kernel-assigned port. *)

val stopping : t -> bool
(** A stop was requested (the drain may still be running). *)

val stop : t -> unit
(** Request the drain and block until it has finished.  Idempotent and
    callable from any thread but a connection thread. *)

val run : ?on_ready:(unit -> unit) -> t -> unit
(** Install SIGTERM/SIGINT handlers that only set the stop flag (the
    supervisor acts on it within 50 ms), call [on_ready] (the CLI's
    banner), block until the drain — however it was triggered — has
    finished, then restore the previous handlers. *)
