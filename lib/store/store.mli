(** Content-addressed on-disk artifact store.

    Layout under the root directory:

    {v root/objects/<k2>/<key>.art   one envelope-framed artifact each
       root/manifest                 one "key kind version bytes" line per
                                     put, in insertion order (GC eviction
                                     order); rebuilt by gc v}

    Keys are 32-hex-char digests derived by {!Stage} from (stage name,
    input artifact keys, stage config, codec kind/version).  Writes are
    atomic (temp file in the same directory, then [Sys.rename]), so a
    crash mid-write never leaves a half artifact under a live key; loads
    never trust on-disk bytes — the caller decodes through {!Codec},
    where a bad checksum is a cache miss, not a crash. *)

type t

val default_dir : string
(** ["_dlcache"] — the conventional cache root (gitignored). *)

val open_ : string -> t
(** Create the directory skeleton if needed.
    @raise Sys_error when the root cannot be created. *)

val object_path : t -> string -> string
(** On-disk path of a key (whether or not it exists). *)

val mem : t -> string -> bool

val load : t -> string -> bytes option
(** Raw artifact bytes; [None] when absent or unreadable.  Envelope
    validation is the caller's job (via {!Codec.of_bytes}). *)

val put : t -> key:string -> kind:string -> version:int -> bytes -> unit
(** Atomic write + manifest append.  Overwrites an existing object (used
    to repair a corrupt artifact in place). *)

val remove : t -> string -> unit
(** Delete one object (no-op when absent). *)

val clear : t -> unit
(** Delete every object and the manifest (the root survives). *)

type stats = {
  objects : int;
  total_bytes : int;
  by_kind : (string * int * int) list;
      (** [(kind, count, bytes)], descending by bytes; kind ["?"] collects
          unreadable headers. *)
}

val stats : t -> stats
(** Header-only scan of the objects directory (no checksum pass). *)

type verify_report = {
  checked : int;
  corrupt : (string * string) list;  (** [(key, reason)]. *)
}

val verify : t -> verify_report
(** Full checksum pass over every object. *)

type gc_report = {
  kept : int;
  removed_corrupt : int;
  removed_stale : int;
  removed_evicted : int;
  removed_bytes : int;
}

val gc : current:(string * int) list -> ?max_bytes:int -> t -> gc_report
(** Remove corrupt artifacts, artifacts whose format version differs
    from [current]'s for their kind (a kind absent from [current] is
    kept), and — when [max_bytes] is given — evict oldest-first (manifest
    insertion order) until the store fits.  Rewrites the manifest.  The
    pipeline's list is [Dl_core.Experiment.codec_versions]. *)
