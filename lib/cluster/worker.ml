module Server = Dl_serve.Server
module Client = Dl_serve.Client
module Protocol = Dl_serve.Protocol
module Transport = Dl_serve.Transport

(* Peer interaction tuning: short enough that a dead peer costs a worker
   milliseconds-to-a-second per stage, not a hung job. *)
let peer_connect_timeout_s = 1.0
let peer_frame_deadline_s = 10.0
let peer_cooldown_s = 2.0
let fetch_candidates = 2

type state = {
  mutex : Mutex.t;
  mutable ring : Hash_ring.t;
  mutable self : string;  (* endpoint string; "" until the server is bound *)
  (* endpoint -> do-not-retry-before instant; a failed peer is skipped for
     [peer_cooldown_s] so one dead node cannot serialize every stage
     behind repeated connect timeouts. *)
  cooldown : (string, float) Hashtbl.t;
}

type t = { state : state; server : Server.t }

let locked st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let in_cooldown st peer =
  locked st (fun () ->
      match Hashtbl.find_opt st.cooldown peer with
      | Some until -> Unix.gettimeofday () < until
      | None -> false)

let note_failure st peer =
  locked st (fun () ->
      Hashtbl.replace st.cooldown peer
        (Unix.gettimeofday () +. peer_cooldown_s))

let note_success st peer = locked st (fun () -> Hashtbl.remove st.cooldown peer)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let peer_rpc st peer request =
  match
    Client.with_client ~connect_timeout_s:peer_connect_timeout_s
      (Transport.of_string peer)
      (fun c -> Client.rpc ~deadline_s:peer_frame_deadline_s c request)
  with
  | resp ->
      note_success st peer;
      Some resp
  | exception _ ->
      note_failure st peer;
      None

(* Fetch-through: ask the key's home node (then the next distinct member)
   for the artifact before computing it here.  Validation of the bytes is
   the caller's job ({!Dl_store.Stage.run} decodes before trusting). *)
let peer_fetch st key =
  let peers =
    locked st (fun () ->
        Hash_ring.route ~n:(fetch_candidates + 1) st.ring key
        |> List.filter (fun p -> p <> st.self))
    |> take fetch_candidates
  in
  let rec go = function
    | [] -> None
    | peer :: rest ->
        if in_cooldown st peer then go rest
        else begin
          match peer_rpc st peer (Protocol.Store_get key) with
          | Some (Protocol.Store_found data) -> Some (Bytes.of_string data)
          | Some _ -> go rest
          | None -> go rest
        end
  in
  go peers

(* Replication push: a freshly computed artifact goes to its key's home
   node, so the next worker that hashes there finds it without a second
   network hop.  Best-effort by contract. *)
let peer_publish st key data =
  let home =
    locked st (fun () ->
        if Hash_ring.is_empty st.ring then None
        else Some (Hash_ring.home st.ring key))
  in
  match home with
  | Some peer when peer <> st.self && not (in_cooldown st peer) ->
      ignore
        (peer_rpc st peer
           (Protocol.Store_put { key; data = Bytes.to_string data }))
  | _ -> ()

let start ?workers ?queue_capacity ?cache_capacity ?domains_per_worker
    ?max_frame ?on_job_start ?cache_dir ~listen () =
  let state =
    {
      mutex = Mutex.create ();
      ring = Hash_ring.create [];
      self = "";
      cooldown = Hashtbl.create 8;
    }
  in
  let remote =
    {
      Dl_store.Stage.fetch = (fun key -> peer_fetch state key);
      publish = (fun key data -> peer_publish state key data);
    }
  in
  let cfg =
    Server.config ?workers ?queue_capacity ?cache_capacity
      ?domains_per_worker ?max_frame ?on_job_start
      ?cache_dir ~remote ~listen ()
  in
  let server = Server.start cfg in
  state.self <- Transport.to_string (Server.bound server);
  { state; server }

let bound t = Server.bound t.server

let set_peers t endpoints =
  let members = List.map Transport.to_string endpoints in
  locked t.state (fun () -> t.state.ring <- Hash_ring.create members)

let stop t = Server.stop t.server

let run ?(on_ready = ignore) t =
  Dl_serve.Listener.run
    ~on_ready:(fun () -> on_ready t)
    (Server.listener t.server)
