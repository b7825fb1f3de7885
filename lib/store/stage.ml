type outcome = Hit | Fetched | Miss | Uncached

type report = { stage : string; key : string; outcome : outcome; seconds : float }

type remote = {
  fetch : string -> bytes option;
  publish : string -> bytes -> unit;
}

type t = {
  store : Store.t option;
  remote : remote option;
  mutable rev_reports : report list;
}

let create ?store ?remote () = { store; remote; rev_reports = [] }

let key ~stage ~codec ~config ~inputs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "dlproj-stage/1\n";
  Buffer.add_string buf stage;
  Buffer.add_char buf '\n';
  Buffer.add_string buf codec.Codec.kind;
  Buffer.add_char buf '/';
  Buffer.add_string buf (string_of_int codec.Codec.version);
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    config;
  List.iter
    (fun input ->
      Buffer.add_string buf input;
      Buffer.add_char buf '\n')
    inputs;
  Codec.key_of_string (Buffer.contents buf)

let record t ~stage ~key ~outcome ~seconds =
  t.rev_reports <- { stage; key; outcome; seconds } :: t.rev_reports

(* Peer fetch-through: a remote answer only counts if it decodes as the
   expected artifact — a peer serving garbage (or a different codec
   version) degrades to a local compute, never an error.  A good answer
   is persisted locally so the next run is a plain hit. *)
let try_fetch t ~key ~codec =
  match t.remote with
  | None -> None
  | Some remote -> (
      match (try remote.fetch key with _ -> None) with
      | None -> None
      | Some data -> (
          match Codec.of_bytes codec data with
          | Error _ -> None
          | Ok value ->
              (match t.store with
              | None -> ()
              | Some store ->
                  Store.put store ~key ~kind:codec.Codec.kind
                    ~version:codec.Codec.version data);
              Some value))

let try_publish t ~key data =
  match t.remote with
  | None -> ()
  | Some remote -> ( try remote.publish key data with _ -> ())

let run t ~stage ~codec ?(config = []) ~inputs f =
  let key = key ~stage ~codec ~config ~inputs in
  let t0 = Unix.gettimeofday () in
  let finish outcome value =
    record t ~stage ~key ~outcome ~seconds:(Unix.gettimeofday () -. t0);
    (value, key)
  in
  let compute_and_store outcome =
    match try_fetch t ~key ~codec with
    | Some value -> finish Fetched value
    | None ->
        let value = f () in
        let data = Codec.to_bytes codec value in
        (match t.store with
        | None -> ()
        | Some store ->
            Store.put store ~key ~kind:codec.Codec.kind
              ~version:codec.Codec.version data);
        try_publish t ~key data;
        finish outcome value
  in
  match t.store with
  | None -> compute_and_store Uncached
  | Some store -> (
      match Store.load store key with
      | None -> compute_and_store Miss
      | Some data -> (
          match Codec.of_bytes codec data with
          | Ok value -> finish Hit value
          | Error _ ->
              (* Corrupt or stale on disk: recompute and overwrite. *)
              Store.remove store key;
              compute_and_store Miss))

let reports t = List.rev t.rev_reports

let pp_reports ppf reports =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s %-5s %8.3fs  %s@,"
        r.stage
        (match r.outcome with
        | Hit -> "hit"
        | Fetched -> "fetch"
        | Miss -> "miss"
        | Uncached -> "-")
        r.seconds
        (String.sub r.key 0 (min 12 (String.length r.key))))
    reports;
  Format.fprintf ppf "@]"
