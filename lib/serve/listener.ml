type conn = {
  fd : Unix.file_descr;
  mutable busy : bool;  (* holds a decoded request whose response is unsent *)
  mutable thread : Thread.t option;
}

type t = {
  listen_fd : Unix.file_descr;
  endpoint : Transport.endpoint;
  bound : Transport.endpoint;
  max_frame : int;
  handle : Protocol.request -> Protocol.response;
  drain : unit -> unit;
  cut_off : (unit -> unit) option;
  mutex : Mutex.t;  (* guards conns, stopped and every conn's busy/fd *)
  cond : Condition.t;  (* broadcast once stopped *)
  mutable conns : conn list;  (* open connections only *)
  mutable stopped : bool;
  stop_flag : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable supervisor : Thread.t option;
}

let locked t f = Mutex.protect t.mutex f
let stopping t = Atomic.get t.stop_flag
let request_stop t = Atomic.set t.stop_flag true
let bound t = t.bound

(* --- connections --------------------------------------------------------- *)

(* Closing and unlisting happen under one lock, so the drain never shuts
   down an fd number that a later open may already have reused. *)
let close_conn t conn =
  locked t (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns;
      Transport.close_quietly conn.fd)

let conn_loop t conn =
  let rec loop () =
    match Protocol.recv ~max_frame:t.max_frame Protocol.request_codec conn.fd
    with
    | None -> ()
    | Some req ->
        locked t (fun () -> conn.busy <- true);
        let resp =
          try t.handle req
          with exn -> Protocol.Server_error (Printexc.to_string exn)
        in
        Protocol.send Protocol.response_codec conn.fd resp;
        locked t (fun () -> conn.busy <- false);
        if req = Protocol.Shutdown then request_stop t else loop ()
  in
  Fun.protect
    ~finally:(fun () -> close_conn t conn)
    (fun () ->
      try loop () with
      | Protocol.Protocol_error _ | Unix.Unix_error _ | End_of_file -> ())

let accept_loop t =
  let rec loop () =
    if stopping t then ()
    else
      match
        (try `Conn (fst (Unix.accept ~cloexec:true t.listen_fd)) with
        | Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> `Retry
        | Unix.Unix_error _ -> `Stop)
      with
      | `Retry -> loop ()
      | `Stop -> ()
      | `Conn fd ->
          if stopping t then Transport.close_quietly fd
          else begin
            let conn = { fd; busy = false; thread = None } in
            locked t (fun () -> t.conns <- conn :: t.conns);
            conn.thread <- Some (Thread.create (conn_loop t) conn);
            loop ()
          end
  in
  loop ()

(* --- lifecycle ----------------------------------------------------------- *)

(* Remove a leftover socket file, but only when it provably is one (never
   unlink an arbitrary file) and nothing answers on it (never steal a live
   daemon's address). *)
let prepare_socket path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          -> false
      in
      Transport.close_quietly probe;
      if live then
        failwith (path ^ ": a server is already listening on this socket");
      (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | _ -> failwith (path ^ ": exists and is not a socket; refusing to remove")

let drain_and_close t =
  (* Stop accepting: shutdown makes a blocked accept(2) return on Linux;
     the throwaway connect covers platforms where it does not. *)
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE
   with Unix.Unix_error _ -> ());
  (try Transport.close_quietly (Transport.connect ~timeout_s:1.0 t.bound)
   with Unix.Unix_error _ -> ());
  Option.iter Thread.join t.accept_thread;
  Transport.close_quietly t.listen_fd;
  t.drain ();
  (* Give each connection time to write the response it owes.  A handler
     still busy after that is told to give up, and its answer gets a
     moment to go out.  Then close under the connections (shutdown first,
     so a thread blocked in read wakes). *)
  let busy () = locked t (fun () -> List.exists (fun c -> c.busy) t.conns) in
  let wait_idle seconds =
    let deadline = Unix.gettimeofday () +. seconds in
    while busy () && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done
  in
  wait_idle 10.0;
  Option.iter
    (fun cut_off ->
      if busy () then begin
        cut_off ();
        wait_idle 1.0
      end)
    t.cut_off;
  let conns =
    locked t (fun () ->
        List.iter
          (fun c ->
            try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.conns;
        t.conns)
  in
  List.iter (fun c -> Option.iter Thread.join c.thread) conns;
  (match t.endpoint with
  | Transport.Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Transport.Tcp _ -> ());
  locked t (fun () ->
      t.stopped <- true;
      Condition.broadcast t.cond)

(* Signal handlers may only set [stop_flag]; this thread turns the flag
   into the drain. *)
let rec supervise t =
  if stopping t then drain_and_close t
  else begin
    Thread.delay 0.05;
    supervise t
  end

let start ?(max_frame = Protocol.default_max_frame) ?(drain = ignore) ?cut_off
    ~handle endpoint =
  (match endpoint with
  | Transport.Unix_socket path -> prepare_socket path
  | Transport.Tcp _ -> ());
  let listen_fd = Transport.listen endpoint in
  let t =
    {
      listen_fd;
      endpoint;
      bound = Transport.bound_endpoint listen_fd endpoint;
      max_frame;
      handle;
      drain;
      cut_off;
      mutex = Mutex.create ();
      cond = Condition.create ();
      conns = [];
      stopped = false;
      stop_flag = Atomic.make false;
      accept_thread = None;
      supervisor = None;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.supervisor <- Some (Thread.create supervise t);
  t

let wait t =
  locked t (fun () ->
      while not t.stopped do
        Condition.wait t.cond t.mutex
      done);
  Option.iter Thread.join t.supervisor

let stop t =
  request_stop t;
  wait t

let run ?(on_ready = ignore) t =
  let handler = Sys.Signal_handle (fun _ -> request_stop t) in
  let previous =
    List.map (fun s -> (s, Sys.signal s handler)) [ Sys.sigterm; Sys.sigint ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, old) -> Sys.set_signal s old) previous)
    (fun () ->
      on_ready ();
      wait t)
