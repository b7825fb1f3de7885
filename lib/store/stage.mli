(** Incremental stage graph: each pipeline stage declares its name, its
    input artifact keys and a config fingerprint; the stage key is the
    digest of all of those plus the artifact codec's kind/version.  A warm
    run therefore re-executes a stage only when something upstream of it
    actually changed — a different seed invalidates ATPG and everything
    downstream, while a different target yield or sample-point count
    invalidates nothing in the simulation pipeline.

    With no store attached the graph is a pure bookkeeper: stages always
    compute, but keys and per-stage reports are still produced (that is
    what key-invalidation tests assert on). *)

type outcome =
  | Hit       (** Loaded from the local store. *)
  | Fetched   (** Fetched from a peer store (and persisted locally). *)
  | Miss      (** Computed (and stored, when a store is attached). *)
  | Uncached  (** Computed; no store attached. *)

type report = {
  stage : string;
  key : string;
  outcome : outcome;
  seconds : float;  (** Wall-clock: load+decode on a hit, compute+encode+
                        store on a miss. *)
}

type t

(** Peer tier for cluster fetch-through.  [fetch key] asks peer stores
    for the codec-enveloped artifact bytes before a local compute;
    [publish key data] pushes a freshly computed artifact toward the
    key's home node.  Both are best-effort: any exception they raise is
    swallowed and the stage proceeds as a plain miss/store. *)
type remote = {
  fetch : string -> bytes option;
  publish : string -> bytes -> unit;
}

val create : ?store:Store.t -> ?remote:remote -> unit -> t
val key :
  stage:string ->
  codec:'a Codec.t ->
  config:(string * string) list ->
  inputs:string list ->
  string
(** The stage key: digest of (stage name, codec kind, codec version,
    config pairs in given order, input keys in given order). *)

val run :
  t ->
  stage:string ->
  codec:'a Codec.t ->
  ?config:(string * string) list ->
  inputs:string list ->
  (unit -> 'a) ->
  'a * string
(** [(value, key)].  On a decode failure (bad checksum, stale version,
    malformed payload) the on-disk artifact is removed and the stage
    recomputes — corruption degrades to a miss, never an error.  When a
    [remote] tier is attached, a local miss first tries [remote.fetch]
    (a validated answer is persisted locally and reported {!Fetched});
    a computed artifact is offered to [remote.publish] best-effort. *)

val reports : t -> report list
(** In execution order. *)

val pp_reports : Format.formatter -> report list -> unit
(** Small per-stage table (stage, outcome, seconds, key prefix). *)
