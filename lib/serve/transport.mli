(** Connection endpoints for the projection service: the original
    Unix-domain socket, or TCP for the multi-node fleet ({!Dl_cluster}).

    Both transports speak the identical wire protocol ({!Protocol}): the
    4-byte length prefix and the CRC-framed {!Dl_store.Codec} envelopes
    are byte-for-byte the same on either stream; only connection
    establishment differs. *)

type endpoint =
  | Unix_socket of string  (** Filesystem path of the listening socket. *)
  | Tcp of string * int    (** Host (name or dotted quad) and port. *)

val to_string : endpoint -> string
(** [host:port] for TCP, the bare path for a Unix socket. *)

val of_string : string -> endpoint
(** Inverse of {!to_string}: a [host:port] suffix with a numeric port
    parses as {!Tcp}; anything else (including paths containing [/]) is a
    {!Unix_socket} path.  Raises [Invalid_argument] on the empty string. *)

val connect : ?timeout_s:float -> endpoint -> Unix.file_descr
(** Connected stream socket (TCP_NODELAY set on TCP).  [timeout_s]
    (default 5 s) bounds TCP connection establishment — a dead remote
    host fails with [ETIMEDOUT] instead of hanging for the kernel's
    SYN-retry minutes.  Unix-socket connects are local and immediate.
    @raise Unix.Unix_error on refusal, timeout or unreachable host. *)

val listen : ?backlog:int -> endpoint -> Unix.file_descr
(** Bound + listening socket ([SO_REUSEADDR] on TCP).  Binding
    [Tcp (host, 0)] picks an ephemeral port; recover it with
    {!bound_endpoint}. *)

val bound_endpoint : Unix.file_descr -> endpoint -> endpoint
(** The endpoint actually bound by [listen] (resolves port 0). *)

val close_quietly : Unix.file_descr -> unit
