exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type cursor = { data : bytes; mutable pos : int }

let cursor data = { data; pos = 0 }
let remaining c = Bytes.length c.data - c.pos

let need c n =
  if remaining c < n then
    corrupt "truncated input: need %d bytes at offset %d of %d" n c.pos
      (Bytes.length c.data)

(* ------------------------------------------------------------- writing *)

(* The bit pattern of [n] as an unsigned LEB128 — [lsr] makes the loop
   terminate even when the top (sign) bit is set, which zigzag outputs of
   large-magnitude negative ints legitimately do. *)
let write_varint_bits buf n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let write_varint buf n =
  if n < 0 then invalid_arg "Binary.write_varint: negative";
  write_varint_bits buf n

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag n = (n lsr 1) lxor (- (n land 1))

let write_int buf n = write_varint_bits buf (zigzag n)

let write_byte buf n =
  if n < 0 || n > 0xff then invalid_arg "Binary.write_byte: out of range";
  Buffer.add_char buf (Char.chr n)

let write_bool buf b = write_byte buf (if b then 1 else 0)

let write_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let write_option w buf = function
  | None -> write_byte buf 0
  | Some x ->
      write_byte buf 1;
      w buf x

let write_array w buf a =
  write_varint buf (Array.length a);
  Array.iter (fun x -> w buf x) a

let write_list w buf l =
  write_varint buf (List.length l);
  List.iter (fun x -> w buf x) l

let write_bools_packed buf a =
  let n = Array.length a in
  write_varint buf n;
  let byte = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) then byte := !byte lor (1 lsl (i land 7));
    if i land 7 = 7 then begin
      Buffer.add_char buf (Char.chr !byte);
      byte := 0
    end
  done;
  if n land 7 <> 0 then Buffer.add_char buf (Char.chr !byte)

(* ------------------------------------------------------------- reading *)

(* [need c 1], inlined: this is the hot path of every decoder. *)
let read_byte c =
  let pos = c.pos in
  if pos >= Bytes.length c.data then need c 1;
  c.pos <- pos + 1;
  Char.code (Bytes.unsafe_get c.data pos)

(* A loop rather than a local recursive function, which would allocate
   a closure per call. *)
let read_varint c =
  let shift = ref 0 and acc = ref 0 and more = ref true in
  while !more do
    if !shift > Sys.int_size - 1 then corrupt "varint overflow at offset %d" c.pos;
    let b = read_byte c in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let read_int c = unzigzag (read_varint c)

let read_bool c =
  match read_byte c with
  | 0 -> false
  | 1 -> true
  | b -> corrupt "bad bool byte %d at offset %d" b (c.pos - 1)

let read_float c =
  need c 8;
  let f = Int64.float_of_bits (Bytes.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  f

let read_string c =
  let n = read_varint c in
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let read_option r c =
  match read_byte c with
  | 0 -> None
  | 1 -> Some (r c)
  | b -> corrupt "bad option tag %d at offset %d" b (c.pos - 1)

let read_count c =
  let n = read_varint c in
  (* Sanity bound: a well-formed element occupies at least one byte, so a
     count beyond the remaining bytes is framing corruption, not a huge
     allocation request. *)
  if n > remaining c then
    corrupt "array count %d exceeds remaining %d bytes" n (remaining c);
  n

let read_array r c =
  let n = read_count c in
  Array.init n (fun _ -> r c)

let read_list r c =
  let n = read_varint c in
  if n > remaining c then
    corrupt "list count %d exceeds remaining %d bytes" n (remaining c);
  List.init n (fun _ -> r c)

let read_bools_packed c =
  let n = read_varint c in
  let bytes_needed = (n + 7) / 8 in
  need c bytes_needed;
  let a =
    Array.init n (fun i ->
        let b = Char.code (Bytes.get c.data (c.pos + (i lsr 3))) in
        b land (1 lsl (i land 7)) <> 0)
  in
  c.pos <- c.pos + bytes_needed;
  a

(* ------------------------------------------------------------- crc32 *)

(* Slicing-by-8 on native ints: every value stays within 32 bits, so
   nothing is boxed.  Table [k] (entries [256k .. 256k + 255]) advances a
   byte's contribution through [k] further zero bytes, so one step folds
   eight input bytes with eight lookups. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

(* Four little-endian bytes as a non-negative int.  [Int64.to_int] of an
   8-byte read would drop bit 63 on 63-bit ints, hence two halves. *)
let get_u32 data i = Int32.to_int (Bytes.get_int32_le data i) land 0xFFFFFFFF

let crc32 ?(crc = 0l) data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Binary.crc32: range out of bounds";
  let t = crc_tables in
  (* Every index below is masked to its table, so the lookups skip the
     bounds check. *)
  let get = Array.unsafe_get in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    let lo = !c lxor get_u32 data !i and hi = get_u32 data (!i + 4) in
    c :=
      get t (1792 + (lo land 0xFF))
      lxor get t (1536 + ((lo lsr 8) land 0xFF))
      lxor get t (1280 + ((lo lsr 16) land 0xFF))
      lxor get t (1024 + (lo lsr 24))
      lxor get t (768 + (hi land 0xFF))
      lxor get t (512 + ((hi lsr 8) land 0xFF))
      lxor get t (256 + ((hi lsr 16) land 0xFF))
      lxor get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := get t ((!c lxor Char.code (Bytes.get data j)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)
