type endpoint =
  | Unix_socket of string
  | Tcp of string * int

let to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let of_string s =
  if s = "" then invalid_arg "Transport.of_string: empty endpoint";
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      let host = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt rest with
      | Some port when port >= 0 && port < 65536
                       && not (String.contains host '/') ->
          Tcp (host, port)
      | _ -> Unix_socket s)
  | _ -> Unix_socket s

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve_host host, port)

let socket_domain = function
  | Unix_socket _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Disable Nagle on TCP links: every exchange is one small request frame
   answered by one response frame, exactly the pattern delayed ACK +
   Nagle turns into 40 ms round trips. *)
let tune_stream ep fd =
  match ep with
  | Tcp _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true
      with Unix.Unix_error _ -> ())
  | Unix_socket _ -> ()

let default_connect_timeout_s = 5.0

let connect ?(timeout_s = default_connect_timeout_s) ep =
  let addr = sockaddr ep in
  let fd = Unix.socket ~cloexec:true (socket_domain ep) Unix.SOCK_STREAM 0 in
  (try
     match ep with
     | Unix_socket _ ->
         (* Local connects complete (or refuse) immediately; the timeout
            machinery below is for the TCP path. *)
         Unix.connect fd addr
     | Tcp _ ->
         Unix.set_nonblock fd;
         (match Unix.connect fd addr with
         | () -> ()
         | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
             let _, writable, _ = Unix.select [] [ fd ] [] timeout_s in
             if writable = [] then
               raise
                 (Unix.Unix_error (Unix.ETIMEDOUT, "connect", to_string ep));
             match Unix.getsockopt_error fd with
             | None -> ()
             | Some err ->
                 raise (Unix.Unix_error (err, "connect", to_string ep))));
         Unix.clear_nonblock fd
   with e ->
     close_quietly fd;
     raise e);
  tune_stream ep fd;
  fd

let listen ?(backlog = 64) ep =
  let fd = Unix.socket ~cloexec:true (socket_domain ep) Unix.SOCK_STREAM 0 in
  (try
     (match ep with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_socket _ -> ());
     Unix.bind fd (sockaddr ep);
     Unix.listen fd backlog
   with e ->
     close_quietly fd;
     raise e);
  fd

(* The endpoint actually bound — the only way to learn the port after
   binding [Tcp (host, 0)] (tests and benches bind ephemeral ports so
   parallel runs never collide). *)
let bound_endpoint fd ep =
  match (ep, Unix.getsockname fd) with
  | Unix_socket _, _ -> ep
  | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
  | Tcp _, Unix.ADDR_UNIX _ -> ep
