(** Open-loop load generator for the projection server.

    The generator first {e plans} a complete traffic schedule — arrival
    instants (Poisson at the target rate), workload class per request
    (weighted mix), job seed (drawn from a small pool of [distinct]
    variants per class, so coalescing and the result cache see repeats),
    and an optional per-request deadline — as a pure function of a
    {!Dl_util.Seeds} root.  Replay then walks the schedule on wall clock,
    {e independently of responses}: a slow server does not throttle the
    arrival process, which is what makes the measured backpressure
    (rejections, expiries, tail latency) meaningful.

    Workload classes are resolved by name against
    {!Dl_netlist.Benchmarks.by_name} first (sent as [Builtin]) and
    {!Dl_netlist.Generator.Family.by_name} second (built locally at
    [gates] gates and shipped as [Inline_bench]).

    The rendered {!trace_to_string} depends only on the plan, so two runs
    with the same config produce byte-identical traces — the replay
    contract [dlproj bench-serve] is tested against. *)

type config = {
  rate : float;          (** Mean arrival rate, requests/second. *)
  duration : float;      (** Schedule horizon, seconds. *)
  mix : (string * int) list;  (** [(class, weight)]; weights positive. *)
  seed : int;            (** Root of every stream the plan draws from. *)
  gates : int;           (** Size of generated family circuits. *)
  distinct : int;        (** Job-seed pool size per class. *)
  deadline_ms : (int * int) option;
      (** Uniform per-request deadline range; [None] = no deadlines. *)
  max_random_vectors : int;  (** Forwarded to each {!Protocol.job_spec}. *)
}

val config :
  ?rate:float -> ?duration:float -> ?mix:(string * int) list -> ?seed:int ->
  ?gates:int -> ?distinct:int -> ?deadline_ms:int * int ->
  ?max_random_vectors:int -> unit -> config
(** Defaults: 20 req/s for 3 s, mix [["c432s_small", 1]], seed 1, 120
    gates, 4 distinct seeds per class, no deadlines, 128 random vectors. *)

val mix_of_string : string -> (string * int) list
(** Parse ["c432s:3,xor-heavy:1"]; a bare name means weight 1.
    @raise Invalid_argument on empty input or a non-positive weight. *)

type planned = {
  index : int;
  at_s : float;          (** Offset from replay start, seconds. *)
  class_name : string;
  job_seed : int;
  deadline : int option; (** Milliseconds, per {!config.deadline_ms}. *)
}

val plan : config -> planned array
(** Deterministic in [config] alone.
    @raise Invalid_argument on a non-positive rate/duration/weight/
    [distinct], an empty mix, or a class name neither a benchmark nor a
    registered family. *)

val trace_to_string : config -> planned array -> string
(** Render the schedule, one [req] line per request plus a header echoing
    the config — byte-identical across runs with equal configs. *)

type outcome =
  | Served of { coalesced : bool; service_ms : float }
      (** [service_ms] is the server-side figure from the response. *)
  | Rejected of { retry_after_ms : int }
  | Expired
  | Failed of string  (** Server error, connection loss, or decode error. *)

type record = {
  planned : planned;
  sent_at_s : float;  (** Actual send offset (>= [planned.at_s]). *)
  rtt_ms : float;     (** Client-observed send-to-answer wall clock. *)
  outcome : outcome;
}

type report = {
  planned_n : int;
  sent : int;
  served : int;
  coalesced : int;
  rejected : int;
  expired : int;
  failed : int;
  elapsed_s : float;
  offered_rate : float;    (** [planned_n / duration]. *)
  achieved_rate : float;   (** Served answers per elapsed second. *)
  rejection_rate : float;  (** [rejected / sent]; 0 when nothing sent. *)
  p50_ms : float;          (** Client RTT percentiles over served
                               requests ({!Dl_util.Latency} underneath). *)
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  max_ms : float;
}

val run :
  ?clients:int -> socket:Transport.endpoint -> config -> record array * report
(** Replay the plan against a listening server with [clients] (default 4)
    concurrent connections, request [i] on connection [i mod clients].
    Records are indexed like the plan.  A connection that dies is
    re-established for the next request; unreachable sends are [Failed].
    @raise Unix.Unix_error only if the very first connections fail. *)

val report_to_json : report -> string
(** One stable JSON object (fixed field order, round-trippable floats). *)

val pp_report : Format.formatter -> report -> unit
