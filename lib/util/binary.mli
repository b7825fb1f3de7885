(** Binary framing primitives shared by the artifact store ({!Dl_store}):
    LEB128 varints, bit-exact floats, length-prefixed strings, and a
    table-driven CRC-32 — all over [Buffer] (writing) and [Bytes]
    (reading), allocation-light and dependency-free.

    Readers operate through a {!cursor} (bytes + mutable position) and
    raise {!Corrupt} on any truncated or malformed input; the store turns
    that into a cache miss rather than a crash. *)

exception Corrupt of string
(** Raised by every [read_*] on truncation or malformed framing. *)

type cursor = { data : bytes; mutable pos : int }

val cursor : bytes -> cursor
(** Cursor at offset 0. *)

val remaining : cursor -> int
(** {2 Writing (into a [Buffer.t])} *)

val write_varint : Buffer.t -> int -> unit
(** Unsigned LEB128. @raise Invalid_argument on negative input. *)

val write_int : Buffer.t -> int -> unit
(** Signed integer via zigzag + LEB128. *)

val write_byte : Buffer.t -> int -> unit
(** One byte; the value must be in [0, 255]. *)

val write_bool : Buffer.t -> bool -> unit
val write_float : Buffer.t -> float -> unit
(** Bit-exact: the IEEE-754 image via [Int64.bits_of_float], little-endian
    (NaN payloads and signed zeros round-trip). *)

val write_string : Buffer.t -> string -> unit
(** Varint length prefix, then the raw bytes. *)

val write_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val write_array : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a array -> unit
(** Varint count, then each element. *)

val write_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

val write_bools_packed : Buffer.t -> bool array -> unit
(** Varint count, then the values packed 8 per byte (LSB first). *)

(** {2 Reading (from a {!cursor})} *)

val read_varint : cursor -> int
val read_int : cursor -> int
val read_byte : cursor -> int
val read_bool : cursor -> bool
val read_float : cursor -> float
val read_string : cursor -> string
val read_option : (cursor -> 'a) -> cursor -> 'a option
val read_array : (cursor -> 'a) -> cursor -> 'a array
(** A {!read_count}, then that many elements. *)

val read_count : cursor -> int
(** An array's element count, as {!read_array} reads it: raises {!Corrupt}
    when it exceeds the remaining bytes (every element takes at least
    one), so a decoder that loops over the elements itself keeps the same
    sanity bound. *)

val read_list : (cursor -> 'a) -> cursor -> 'a list
val read_bools_packed : cursor -> bool array

(** {2 Hashing} *)

val crc32 : ?crc:int32 -> bytes -> pos:int -> len:int -> int32
(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte range.
    Pass [crc] to continue a running checksum. *)
