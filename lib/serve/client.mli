(** Blocking client for the projection server: one connected stream
    socket ({!Transport} — Unix domain or TCP), one request/response
    exchange at a time.

    Failure modes are distinguished in the error text: connection refused
    ("is the server running?"), a missing socket file, a connect timeout,
    the server closing cleanly at a frame boundary, and the server dying
    {e mid-frame} all read differently.  All of them raise
    {!Protocol.Protocol_error}; [dlproj] maps that onto its one-line
    [die]. *)

type t

val connect :
  ?max_frame:int -> ?connect_timeout_s:float -> ?retries:int ->
  ?backoff_ms:int -> Transport.endpoint -> t
(** Connect to the endpoint.  [connect_timeout_s] bounds TCP connection
    establishment ({!Transport.connect}).  [retries] (default 0) extra
    attempts are made on refused/unreachable/timed-out connects, sleeping
    a jittered exponential backoff starting at [backoff_ms] (default 100,
    doubling, capped at 10 s) between attempts — the jitter keeps a fleet
    of clients from retrying in lockstep.
    @raise Protocol.Protocol_error once every attempt failed, with a
    message naming the failure mode. *)

val close : t -> unit
(** Idempotent. *)

val with_client :
  ?max_frame:int -> ?connect_timeout_s:float -> ?retries:int ->
  ?backoff_ms:int -> Transport.endpoint -> (t -> 'a) -> 'a
(** Connect, run, close (also on exception). *)

val abort : t -> unit
(** Shut the connection down, from any thread: an {!rpc} blocked on it
    raises {!Protocol.Protocol_error}.  {!close} is still needed. *)

val rpc :
  ?deadline_s:float -> ?timeout_s:float -> t -> Protocol.request ->
  Protocol.response
(** One round trip.  [deadline_s] bounds the server's reply {e frame}
    (clock starts at its first byte; see {!Protocol.read_frame}) — it does
    NOT bound how long the server may think before starting to reply.
    [timeout_s] does: the whole reply must have arrived within [timeout_s]
    of sending the request.
    @raise Protocol.Protocol_error if the server hangs up (the message
    says whether it was at a frame boundary or mid-frame) or answers with
    an undecodable frame. *)

val ping : t -> bool
(** [true] iff the server answers {!Protocol.Pong}. *)

val submit : t -> Protocol.job_spec -> Protocol.response

val submit_retrying :
  ?attempts:int -> t -> Protocol.job_spec -> Protocol.response
(** {!submit}, but on {!Protocol.Rejected} sleep the server's
    [retry_after_ms] hint (jittered) and resubmit, up to [attempts]
    (default 3) extra times.  The final rejection, if any, is returned to
    the caller like any other response. *)

val run_stage : t -> Protocol.job_spec -> stage:string -> Protocol.response
(** Submit one stage of the spec's experiment ({!Protocol.Serve_stage});
    a successful answer is {!Protocol.Stage_done}. *)

val store_get : t -> string -> bytes option
(** Ask the server's artifact store for a stage key; [None] when absent.
    @raise Protocol.Protocol_error on a non-store reply. *)

val store_put : t -> key:string -> bytes -> bool
(** Offer a codec-enveloped artifact; [false] means the server rejected
    it (no store attached, or envelope validation failed). *)

val get_stats : ?timeout_s:float -> t -> Protocol.stats
(** [timeout_s] as for {!rpc}.
    @raise Protocol.Protocol_error on a non-[Stats_reply] answer. *)

val shutdown : t -> Protocol.stats
(** Ask the server to drain and exit; returns its final statistics. *)
