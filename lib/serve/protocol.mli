(** Wire protocol of the projection server ({!Server}/{!Client}).

    Every message travels as one {e frame}: a 4-byte little-endian length
    prefix followed by exactly that many bytes of a {!Dl_store.Codec}
    envelope (magic, kind, version byte, varint-framed payload, CRC-32
    trailer).  The envelope reuses the artifact-store framing wholesale, so
    the server rejects truncated, bit-flipped or stale-version frames the
    same way the store rejects corrupt artifacts: loudly, before any
    payload decoder runs.

    Requests carry a circuit (a built-in benchmark name or inline [.bench]
    text) plus the {!Dl_core.Experiment.config} overrides that are part of
    the request key; responses carry the summary/fit artifact already
    defined by {!Dl_store.Artifact.summary}, so a served answer is framed
    exactly like the cached projection-stage artifact it corresponds to. *)

(** {2 Messages} *)

type circuit_spec =
  | Builtin of string  (** A {!Dl_netlist.Benchmarks.by_name} name. *)
  | Inline_bench of { title : string; text : string }
      (** ISCAS-85 [.bench] source shipped with the request; parsed with
          {!Dl_netlist.Bench_format.parse_string} on admission. *)

type job_spec = {
  circuit : circuit_spec;
  seed : int;
  max_random_vectors : int;
  target_yield : float;
  collapse_faults : bool;
  min_weight_ratio : float;
  deadline_ms : int option;
      (** Relative deadline.  A job whose every waiter's deadline expires
          while it is still queued is cancelled, never run; a waiter whose
          deadline passes first receives {!Expired}. *)
}

val job_spec :
  ?seed:int -> ?max_random_vectors:int -> ?target_yield:float ->
  ?collapse_faults:bool -> ?min_weight_ratio:float -> ?deadline_ms:int ->
  circuit_spec -> job_spec
(** Defaults: seed 7, 256 random vectors, yield 0.75, collapsed universe,
    no pruning, no deadline. *)

val experiment_config :
  ?cache_dir:string -> ?remote:Dl_store.Stage.remote -> job_spec ->
  (Dl_core.Experiment.config, string) result
(** The experiment a spec asks for — its built-in circuit looked up, or
    its inline [.bench] text parsed, and its config validated — or a
    one-line reason it is invalid, found before anything is queued. *)

type request =
  | Ping
  | Get_stats
  | Submit of job_spec
  | Serve_stage of { spec : job_spec; stage : string }
      (** Run one named stage of the spec's experiment (plus its
          dependency closure) instead of the whole pipeline — the unit the
          cluster coordinator fans out across workers.  [stage] is a
          {!Dl_core.Experiment.stage_keys} name; the reply is
          {!Stage_done}. *)
  | Store_get of string
      (** Peer artifact fetch: ask this node's store for the artifact
          filed under the given stage key.  Answered {!Store_found} /
          {!Store_missing}; never triggers computation. *)
  | Store_put of { key : string; data : string }
      (** Peer artifact push: offer a codec-enveloped artifact for the
          given key.  The receiver validates the envelope (magic + CRC)
          before persisting and answers {!Store_ack}. *)
  | Shutdown  (** Graceful drain: queued and running jobs complete, new
                  submissions are rejected, then the server exits.  The
                  reply is a final {!Stats_reply}. *)

(** How a {!Serve_stage} request was satisfied: already in the local
    store, fetched from a peer store, or computed here. *)
type stage_outcome = Stage_hit | Stage_fetched | Stage_computed

(** The projection result: run statistics, final coverages, and the same
    summary/fit artifact the stage graph caches for the projection stage. *)
type result_payload = {
  circuit_title : string;
  vectors : int;
  stuck_fault_count : int;
  realistic_fault_count : int;
  t_final : float;
  theta_final : float;
  gamma_final : float;
  theta_iddq_final : float;
  target_yield : float;
  summary : Dl_store.Artifact.summary;
  request_key : string;  (** {!Dl_core.Experiment.request_key} — also the
                             coalescing key this answer was filed under. *)
  stage_hits : int;
  stage_misses : int;    (** Artifact-store outcomes of the underlying run;
                             both 0 for an answer fanned out without one. *)
}

type served = {
  payload : result_payload;
  coalesced : bool;
      (** The answer was fanned out from another execution — this request
          attached to an identical in-flight job or hit the in-memory
          result cache; no stage ran on its behalf. *)
  service_ms : float;  (** Admission-to-answer wall clock, server side. *)
}

type stats = {
  accepted : int;    (** Submissions admitted (executed, coalesced or
                         answered from the result cache). *)
  rejected : int;    (** Submissions refused by admission control. *)
  coalesced : int;   (** Accepted without a new execution. *)
  executed : int;    (** Jobs actually run through the experiment. *)
  completed : int;   (** Result responses delivered. *)
  expired : int;     (** Deadline expiries (waiters and cancelled jobs). *)
  failed : int;      (** Executions that raised. *)
  queue_depth : int;
  in_flight : int;
  p50_ms : float;    (** Of observed service times; [0.0] before the
                         first completed request (never [nan]). *)
  p99_ms : float;
  p999_ms : float;   (** Resolvable at any sample count thanks to the
                         {!Dl_util.Latency} histogram behind it. *)
  uptime_s : float;
}

type response =
  | Pong
  | Stats_reply of stats
  | Result of served
  | Rejected of { retry_after_ms : int; queue_depth : int }
      (** Admission control: the bounded queue is full (or the server is
          draining).  [retry_after_ms] scales with observed service time
          and backlog. *)
  | Expired  (** The request's deadline passed before an answer existed. *)
  | Server_error of string
      (** Admission or execution failure (unknown benchmark, malformed
          inline netlist, engine exception) — the message is the one-line
          diagnostic. *)
  | Stage_done of {
      stage : string;
      key : string;  (** The stage key the artifact is filed under. *)
      outcome : stage_outcome;
      seconds : float;  (** Wall clock spent serving the stage. *)
    }
  | Store_found of string  (** The codec-enveloped artifact bytes. *)
  | Store_missing
  | Store_ack of bool
      (** [false] when the offered artifact failed envelope validation
          and was discarded. *)

val request_codec : request Dl_store.Codec.t
val response_codec : response Dl_store.Codec.t

(** {2 Framing} *)

val default_max_frame : int
(** 16 MiB — generous for inline netlists, small enough that a corrupt
    length prefix cannot allocate unboundedly. *)

exception Protocol_error of string
(** Raised by the [read_*]/[write_*] functions on framing violations
    (oversized frame, truncated stream mid-frame, undecodable envelope).
    Socket-level failures raise [Unix.Unix_error] as usual. *)

val read_frame :
  ?max_frame:int -> ?deadline_s:float -> Unix.file_descr -> bytes option
(** [None] on clean EOF at a frame boundary.  [deadline_s] bounds how long
    the peer may take to deliver the {e rest} of a frame once its first
    byte has arrived — the wait for that first byte is unbounded, so idle
    connections never expire, but a peer that trickles a frame byte-by-byte
    (slow loris) is cut off with {!Protocol_error}. *)

val send : 'a Dl_store.Codec.t -> Unix.file_descr -> 'a -> unit

val recv :
  ?max_frame:int -> ?deadline_s:float ->
  'a Dl_store.Codec.t -> Unix.file_descr -> 'a option
(** [send]/[recv]: one codec-enveloped value per frame.  [recv] returns
    [None] on clean EOF and raises {!Protocol_error} on a frame that does
    not decode or that misses its [deadline_s]. *)

(** {2 Shared rendering}

    [dlproj pipeline --json], [dlproj submit] and the server all print a
    {!served} through the same functions, so a scripted local run and a
    served answer are textually identical apart from the service fields. *)

val payload_of_experiment :
  key:string -> Dl_core.Experiment.t -> result_payload
(** Distill a finished experiment into the wire payload ([key] is the
    request key the answer is filed under). *)

val json_escape : string -> string
(** RFC 8259 string-body escaping (UTF-8 bytes pass through); the result
    is meant to sit between plain double quotes. *)

val json_float : float -> string
(** Round-trippable ([%.17g]); non-finite values render as [null]. *)

val served_to_json : served -> string
(** One stable JSON object (sorted, fixed field set, round-trippable
    floats); see DESIGN.md §6e for the schema. *)

val pp_served : Format.formatter -> served -> unit
(** Human-readable rendering used by [dlproj submit]. *)

val pp_stats : Format.formatter -> stats -> unit
