type t = { root : string }

let default_dir = "_dlcache"

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let objects_dir t = Filename.concat t.root "objects"
let manifest_path t = Filename.concat t.root "manifest"

let open_ root =
  mkdir_p (Filename.concat root "objects");
  if not (Sys.is_directory root) then
    raise (Sys_error (root ^ ": not a directory"));
  { root }

let shard key = if String.length key >= 2 then String.sub key 0 2 else "xx"

let object_path t key =
  Filename.concat (Filename.concat (objects_dir t) (shard key)) (key ^ ".art")

let key_of_path path = Filename.chop_suffix (Filename.basename path) ".art"

let mem t key = Sys.file_exists (object_path t key)

(* Files are read and written through a file descriptor, not a channel:
   a channel's 64 KiB buffer lives outside the heap until the GC
   finalises the channel, long after it is closed, and a warm run reads
   one object per stage.  Failures raise [Sys_error], as the channel
   functions would. *)
let with_fd path flags f =
  let sys_error e = raise (Sys_error (path ^ ": " ^ Unix.error_message e)) in
  match Unix.openfile path (Unix.O_CLOEXEC :: flags) 0o644 with
  | exception Unix.Unix_error (e, _, _) -> sys_error e
  | fd -> (
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try f fd with Unix.Unix_error (e, _, _) -> sys_error e))

let read_file path =
  with_fd path [ Unix.O_RDONLY ] (fun fd ->
      let n = (Unix.fstat fd).st_size in
      let data = Bytes.create n in
      let rec fill pos =
        if pos < n then
          match Unix.read fd data pos (n - pos) with
          | 0 -> raise End_of_file
          | k -> fill (pos + k)
      in
      fill 0;
      data)

(* [Unix.write] repeats until every byte is written or it fails. *)
let write_file path flags data =
  with_fd path (Unix.O_WRONLY :: Unix.O_CREAT :: flags) (fun fd ->
      ignore (Unix.write fd data 0 (Bytes.length data)))

let load t key =
  match read_file (object_path t key) with
  | data -> Some data
  | exception Sys_error _ -> None
  | exception End_of_file -> None

(* One [write] on an [O_APPEND] descriptor per line. *)
let append_manifest t ~key ~kind ~version ~bytes =
  write_file (manifest_path t) [ Unix.O_APPEND ]
    (Bytes.of_string (Printf.sprintf "%s %s %d %d\n" key kind version bytes))

(* The pid alone is not enough to make tmp names unique: server worker
   threads share a process and may put the same key concurrently (e.g. a
   peer push racing a local compute). *)
let put_seq = Atomic.make 0

let put t ~key ~kind ~version data =
  let path = object_path t key in
  mkdir_p (Filename.dirname path);
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp.%d.%d.%s" (Unix.getpid ())
         (Atomic.fetch_and_add put_seq 1)
         (Filename.basename path))
  in
  (try write_file tmp [ Unix.O_TRUNC ] data
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  append_manifest t ~key ~kind ~version ~bytes:(Bytes.length data)

let remove t key =
  let path = object_path t key in
  try Sys.remove path with Sys_error _ -> ()

let fold t ~init ~f =
  let dir = objects_dir t in
  let acc = ref init in
  let shards = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare shards;
  Array.iter
    (fun s ->
      let sdir = Filename.concat dir s in
      if Sys.is_directory sdir then begin
        let files = Sys.readdir sdir in
        Array.sort compare files;
        Array.iter
          (fun fname ->
            if Filename.check_suffix fname ".art" then begin
              let path = Filename.concat sdir fname in
              acc := f !acc ~key:(key_of_path path) ~path
            end)
          files
      end)
    shards;
  !acc

let clear t =
  fold t ~init:() ~f:(fun () ~key:_ ~path ->
      try Sys.remove path with Sys_error _ -> ());
  try Sys.remove (manifest_path t) with Sys_error _ -> ()

(* -------------------------------------------------------------- stats *)

type stats = {
  objects : int;
  total_bytes : int;
  by_kind : (string * int * int) list;
}

let stats t =
  let tbl = Hashtbl.create 8 in
  let objects, total_bytes =
    fold t ~init:(0, 0) ~f:(fun (n, bytes) ~key:_ ~path ->
        match read_file path with
        | exception Sys_error _ -> (n, bytes)
        | s ->
            let kind =
              match Codec.inspect ~check_crc:false s with
              | Ok (kind, _) -> kind
              | Error _ -> "?"
            in
            let c, b = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl kind) in
            Hashtbl.replace tbl kind (c + 1, b + Bytes.length s);
            (n + 1, bytes + Bytes.length s))
  in
  let by_kind =
    Hashtbl.fold (fun kind (c, b) acc -> (kind, c, b) :: acc) tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  { objects; total_bytes; by_kind }

(* ------------------------------------------------------------- verify *)

type verify_report = { checked : int; corrupt : (string * string) list }

let verify t =
  let checked, corrupt =
    fold t ~init:(0, []) ~f:(fun (n, bad) ~key ~path ->
        match read_file path with
        | exception Sys_error m -> (n + 1, (key, "unreadable: " ^ m) :: bad)
        | s -> (
            match Codec.inspect ~check_crc:true s with
            | Ok _ -> (n + 1, bad)
            | Error e -> (n + 1, (key, Codec.error_to_string e) :: bad)))
  in
  { checked; corrupt = List.rev corrupt }

(* ----------------------------------------------------------------- gc *)

type gc_report = {
  kept : int;
  removed_corrupt : int;
  removed_stale : int;
  removed_evicted : int;
  removed_bytes : int;
}

(* Manifest insertion order, oldest first, deduplicated on the *last*
   occurrence (a re-put refreshes an artifact's position). *)
let manifest_order t =
  match open_in (manifest_path t) with
  | exception Sys_error _ -> []
  | ic ->
      let order = ref [] in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            while true do
              let line = input_line ic in
              match String.split_on_char ' ' line with
              | key :: _ -> order := key :: !order
              | [] -> ()
            done
          with End_of_file -> ());
      let seen = Hashtbl.create 64 in
      let newest_first =
        List.filter
          (fun key ->
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          !order
      in
      List.rev newest_first

let gc ~current ?max_bytes t =
  let removed_corrupt = ref 0
  and removed_stale = ref 0
  and removed_evicted = ref 0
  and removed_bytes = ref 0 in
  let live = Hashtbl.create 64 in
  (* Pass 1: drop corrupt and version-stale artifacts. *)
  fold t ~init:() ~f:(fun () ~key ~path ->
      let size = try (Unix.stat path).st_size with Unix.Unix_error _ -> 0 in
      let drop counter =
        incr counter;
        removed_bytes := !removed_bytes + size;
        try Sys.remove path with Sys_error _ -> ()
      in
      match read_file path with
      | exception Sys_error _ -> drop removed_corrupt
      | s -> (
          match Codec.inspect ~check_crc:true s with
          | Error _ -> drop removed_corrupt
          | Ok (kind, version) -> (
              match List.assoc_opt kind current with
              | Some v when v <> version -> drop removed_stale
              | _ -> Hashtbl.replace live key (kind, version, size))));
  (* Pass 2: size-cap eviction, oldest manifest entries first.  Keys put
     before the manifest existed (or with a lost manifest) have no
     recorded age and are evicted first. *)
  (match max_bytes with
  | None -> ()
  | Some cap ->
      let total =
        Hashtbl.fold (fun _ (_, _, size) acc -> acc + size) live 0
      in
      let ordered =
        let in_manifest =
          List.filter (fun k -> Hashtbl.mem live k) (manifest_order t)
        in
        let recorded = Hashtbl.create 64 in
        List.iter (fun k -> Hashtbl.replace recorded k ()) in_manifest;
        let unrecorded =
          Hashtbl.fold
            (fun k _ acc -> if Hashtbl.mem recorded k then acc else k :: acc)
            live []
          |> List.sort compare
        in
        unrecorded @ in_manifest
      in
      let excess = ref (total - cap) in
      List.iter
        (fun key ->
          if !excess > 0 then begin
            let _, _, size = Hashtbl.find live key in
            (try Sys.remove (object_path t key) with Sys_error _ -> ());
            Hashtbl.remove live key;
            incr removed_evicted;
            removed_bytes := !removed_bytes + size;
            excess := !excess - size
          end)
        ordered);
  (* Rewrite the manifest to the surviving set, preserving age order. *)
  let survivors_in_order =
    let in_manifest =
      List.filter (fun k -> Hashtbl.mem live k) (manifest_order t)
    in
    let recorded = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace recorded k ()) in_manifest;
    let unrecorded =
      Hashtbl.fold
        (fun k _ acc -> if Hashtbl.mem recorded k then acc else k :: acc)
        live []
      |> List.sort compare
    in
    unrecorded @ in_manifest
  in
  let tmp = manifest_path t ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun key ->
          let kind, version, size = Hashtbl.find live key in
          Printf.fprintf oc "%s %s %d %d\n" key kind version size)
        survivors_in_order);
  Sys.rename tmp (manifest_path t);
  {
    kept = Hashtbl.length live;
    removed_corrupt = !removed_corrupt;
    removed_stale = !removed_stale;
    removed_evicted = !removed_evicted;
    removed_bytes = !removed_bytes;
  }
