type t = {
  fd : Unix.file_descr;
  max_frame : int;
  endpoint : Transport.endpoint;
  mutable closed : bool;
}

let conn_error fmt = Printf.ksprintf (fun m -> raise (Protocol.Protocol_error m)) fmt

(* Jitter source for retry backoff: seeded per process from the clock and
   pid so a fleet of clients retrying the same dead server does not
   thunder back in lockstep. *)
let jitter_state =
  lazy
    (Random.State.make
       [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |])

let jittered ms =
  let s = Lazy.force jitter_state in
  (* Uniform in [ms/2, ms): full magnitude, desynchronized phase. *)
  (ms / 2) + Random.State.int s (max 1 ((ms + 1) / 2))

let retriable = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT | Unix.EHOSTUNREACH
  | Unix.ENETUNREACH ->
      true
  | _ -> false

(* Turn a final connect failure into a one-line diagnostic that tells the
   user which failure mode they are looking at — "refused" (nothing bound
   to a live address) reads very differently from "timed out" (host not
   answering at all) or "no socket file" (daemon never started here). *)
let connect_failed ep err =
  let at = Transport.to_string ep in
  match err with
  | Unix.ECONNREFUSED ->
      conn_error "connection refused at %s — is the server running?" at
  | Unix.ENOENT ->
      conn_error "no socket at %s — is the server running?" at
  | Unix.ETIMEDOUT -> conn_error "connection to %s timed out" at
  | err ->
      conn_error "cannot connect to %s: %s" at (Unix.error_message err)

let connect ?(max_frame = Protocol.default_max_frame) ?connect_timeout_s
    ?(retries = 0) ?(backoff_ms = 100) endpoint =
  let rec attempt remaining backoff =
    match Transport.connect ?timeout_s:connect_timeout_s endpoint with
    | fd -> { fd; max_frame; endpoint; closed = false }
    | exception Unix.Unix_error (err, _, _) when retriable err ->
        if remaining <= 0 then connect_failed endpoint err
        else begin
          Thread.delay (float_of_int (jittered backoff) /. 1000.0);
          attempt (remaining - 1) (min 10_000 (backoff * 2))
        end
    | exception Unix.Unix_error (err, _, _) -> connect_failed endpoint err
  in
  attempt retries backoff_ms

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_client ?max_frame ?connect_timeout_s ?retries ?backoff_ms endpoint f =
  let t = connect ?max_frame ?connect_timeout_s ?retries ?backoff_ms endpoint in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let abort t =
  if not t.closed then
    try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Block until [fd] is readable or [until] (absolute) has passed. *)
let rec readable_by fd until =
  let left = until -. Unix.gettimeofday () in
  left > 0.0
  &&
  match Unix.select [ fd ] [] [] left with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable_by fd until

let rpc ?deadline_s ?timeout_s t request =
  let at = Transport.to_string t.endpoint in
  (* EPIPE here means the server hung up mid-exchange: surface it as a
     protocol error so callers don't confuse it with a broken stdout. *)
  (try Protocol.send Protocol.request_codec t.fd request
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     conn_error "server at %s closed the connection" at);
  (* With [timeout_s], the reply's first byte must come before the
     instant and the frame must end by it too. *)
  let deadline_s =
    match timeout_s with
    | None -> deadline_s
    | Some s ->
        let until = Unix.gettimeofday () +. s in
        if not (readable_by t.fd until) then
          conn_error "server at %s did not reply within %gs" at s;
        let left = until -. Unix.gettimeofday () in
        Some (Option.fold ~none:left ~some:(Float.min left) deadline_s)
  in
  match
    Protocol.recv ~max_frame:t.max_frame ?deadline_s Protocol.response_codec
      t.fd
  with
  | Some response -> response
  | None ->
      (* Clean EOF between frames: the server closed deliberately (drain,
         crash-free exit) without answering — distinct from dying mid-
         frame, which [recv] reports as a truncated-frame error below. *)
      conn_error
        "server at %s closed the connection at a frame boundary before \
         replying" at
  | exception Protocol.Protocol_error msg ->
      conn_error "server at %s hung up mid-frame: %s" at msg
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      conn_error "server at %s reset the connection mid-frame" at

let ping t = match rpc t Protocol.Ping with
  | Protocol.Pong -> true
  | _ -> false

let submit t spec = rpc t (Protocol.Submit spec)

(* Admission-control-aware submission: honor the server's own
   [retry_after_ms] hint (jittered down, so coordinated clients spread
   out) for up to [attempts] rejections, then hand the last rejection to
   the caller. *)
let submit_retrying ?(attempts = 3) t spec =
  let rec go n =
    match submit t spec with
    | Protocol.Rejected { retry_after_ms; _ } as resp ->
        if n <= 0 then resp
        else begin
          Thread.delay (float_of_int (jittered retry_after_ms) /. 1000.0);
          go (n - 1)
        end
    | resp -> resp
  in
  go attempts

let run_stage t spec ~stage = rpc t (Protocol.Serve_stage { spec; stage })

let store_get t key =
  match rpc t (Protocol.Store_get key) with
  | Protocol.Store_found data -> Some (Bytes.of_string data)
  | Protocol.Store_missing -> None
  | Protocol.Server_error m ->
      raise (Protocol.Protocol_error ("server error: " ^ m))
  | _ -> raise (Protocol.Protocol_error "unexpected reply to store-get")

let store_put t ~key data =
  match rpc t (Protocol.Store_put { key; data = Bytes.to_string data }) with
  | Protocol.Store_ack ok -> ok
  | Protocol.Server_error m ->
      raise (Protocol.Protocol_error ("server error: " ^ m))
  | _ -> raise (Protocol.Protocol_error "unexpected reply to store-put")

let expect_stats = function
  | Protocol.Stats_reply s -> s
  | Protocol.Server_error m ->
      raise (Protocol.Protocol_error ("server error: " ^ m))
  | _ -> raise (Protocol.Protocol_error "unexpected reply to stats request")

let get_stats ?timeout_s t = expect_stats (rpc ?timeout_s t Protocol.Get_stats)
let shutdown t = expect_stats (rpc t Protocol.Shutdown)
