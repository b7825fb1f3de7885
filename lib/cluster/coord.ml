module Protocol = Dl_serve.Protocol
module Client = Dl_serve.Client
module Transport = Dl_serve.Transport
module Metrics = Dl_serve.Metrics
module Listener = Dl_serve.Listener
module Experiment = Dl_core.Experiment

type config = {
  listen : Transport.endpoint;
  workers : Transport.endpoint list;
  max_in_flight : int;
  probe_period_s : float;
  fanout_stages : bool;
  max_frame : int;
  connect_timeout_s : float;
  steal_margin : int;
}

let config ?(max_in_flight = 4) ?(probe_period_s = 1.0)
    ?(fanout_stages = false) ?(max_frame = Protocol.default_max_frame)
    ?(connect_timeout_s = 2.0) ?(steal_margin = 2) ~listen ~workers () =
  if workers = [] then invalid_arg "Coord.config: no workers";
  if max_in_flight < 1 then invalid_arg "Coord.config: max_in_flight < 1";
  if not (probe_period_s > 0.0) then
    invalid_arg "Coord.config: probe_period_s must be positive";
  {
    listen;
    workers;
    max_in_flight;
    probe_period_s;
    fanout_stages;
    max_frame;
    connect_timeout_s;
    steal_margin;
  }

type wstate = {
  w_name : string;  (* endpoint string; the ring member id *)
  w_endpoint : Transport.endpoint;
  mutable alive : bool;
  mutable in_flight : int;          (* dispatches we have outstanding *)
  mutable probe_queue_depth : int;  (* from the last health probe *)
  mutable consecutive_failures : int;
}

type state = {
  cfg : config;
  ring : Hash_ring.t;
  table : (string, wstate) Hashtbl.t;
  order : wstate list;
  metrics : Metrics.t;
  mutex : Mutex.t;  (* guards every wstate's mutable fields, [calls], [cut] *)
  cond : Condition.t;  (* broadcast when a worker frees up or dies *)
  mutable calls : Client.t list;  (* worker connections awaiting a reply *)
  mutable cut : bool;  (* the drain gave up on them: no new calls *)
}

type t = { st : state; listener : Listener.t; prober : Thread.t }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- worker selection ----------------------------------------------------- *)

let load w = w.in_flight + w.probe_queue_depth

let mark_dead t w =
  locked t (fun () ->
      w.alive <- false;
      w.consecutive_failures <- w.consecutive_failures + 1;
      Condition.broadcast t.cond)

let release t w =
  locked t (fun () ->
      w.in_flight <- w.in_flight - 1;
      Condition.broadcast t.cond)

(* Pick a worker for [key]: the key's home node by default, stolen by the
   least-loaded live worker when the home shard is hot (load difference
   beyond [steal_margin]).  Blocks while every eligible worker is at its
   in-flight cap; [None] once no live untried worker remains, or once the
   drain has cut the relays off. *)
let acquire t ~key ~tried =
  locked t (fun () ->
      let rec go () =
      if t.cut then None
      else
      let usable =
        List.filter
          (fun w -> w.alive && not (Hashtbl.mem tried w.w_name))
          t.order
      in
      if usable = [] then None
      else
        let ready =
          List.filter (fun w -> w.in_flight < t.cfg.max_in_flight) usable
        in
        match ready with
        | [] ->
            Condition.wait t.cond t.mutex;
            go ()
        | first :: rest ->
            let best =
              List.fold_left
                (fun acc w -> if load w < load acc then w else acc)
                first rest
            in
            let home =
              List.find_map
                (fun m ->
                  List.find_opt (fun w -> w.w_name = m) ready)
                (Hash_ring.route t.ring key)
            in
            let chosen =
              match home with
              | Some h when load h - load best > t.cfg.steal_margin ->
                  best
              | Some h -> h
              | None -> best
            in
            chosen.in_flight <- chosen.in_flight + 1;
            Some chosen
      in
      go ())

exception Cut_off

(* A call to a worker, registered so that [cut_off] can abort it.
   @raise Cut_off once the drain has cut the relays off. *)
let worker_rpc t w request =
  Client.with_client ~max_frame:t.cfg.max_frame
    ~connect_timeout_s:t.cfg.connect_timeout_s w.w_endpoint (fun c ->
      locked t (fun () ->
          if t.cut then raise Cut_off;
          t.calls <- c :: t.calls);
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () -> t.calls <- List.filter (( != ) c) t.calls))
        (fun () -> Client.rpc c request))

(* The listener's drain is over with relays still waiting on workers that
   do not answer: abort those calls, and refuse new ones. *)
let cut_off t =
  locked t (fun () ->
      t.cut <- true;
      List.iter Client.abort t.calls;
      Condition.broadcast t.cond)

let is_cut t = locked t (fun () -> t.cut)

let cut_reply = Protocol.Server_error "coordinator stopped before a worker answered"

(* Relay one request, surviving worker deaths: a connection failure (or a
   mid-frame hangup — the worker died while computing) ejects the worker
   and re-dispatches the same request to the next live one, so a job is
   re-run, never lost.  A [Rejected] answer is held while colder workers
   are tried; if every live worker rejects, the last rejection (with its
   [retry_after_ms]) goes back to the client. *)
let dispatch t ~key request =
  let tried = Hashtbl.create 4 in
  let rec attempt last_reject =
    match acquire t ~key ~tried with
    | None when is_cut t -> cut_reply
    | None -> (
        match last_reject with
        | Some r -> r
        | None -> Protocol.Server_error "no live workers")
    | Some w -> (
        match worker_rpc t w request with
        | resp -> (
            release t w;
            match resp with
            | Protocol.Rejected _ ->
                Hashtbl.replace tried w.w_name ();
                attempt (Some resp)
            | resp -> resp)
        | exception _ when is_cut t ->
            release t w;
            cut_reply
        | exception _ ->
            release t w;
            mark_dead t w;
            Hashtbl.replace tried w.w_name ();
            attempt last_reject)
  in
  attempt None

(* --- request handling ------------------------------------------------------ *)

(* The stages a fanned-out submit warms.  [Experiment.stage_waves] orders
   them into dependency waves; stages within a wave fan out to their
   (generally different) home workers concurrently, warming the
   distributed store before the final [Submit] stitches the projection
   together from cache hits. *)
let fanout_stages = [ "atpg"; "layout-ifa"; "fault-sim"; "swift" ]

let fanout t (spec : Protocol.job_spec) cfg keys =
  List.iter
    (fun wave ->
      let threads =
        List.map
          (fun stage ->
            let key = List.assoc stage keys in
            Thread.create
              (fun () ->
                (* Best-effort warm-up: a failed stage job just means the
                   final submit computes it. *)
                ignore (dispatch t ~key (Protocol.Serve_stage { spec; stage })))
              ())
          wave
      in
      List.iter Thread.join threads)
    (Experiment.stage_waves cfg fanout_stages)

let observe t t0 resp =
  (match resp with
  | Protocol.Result _ | Protocol.Stage_done _ ->
      Metrics.incr_completed t.metrics;
      Metrics.observe_service_ms t.metrics
        ((Unix.gettimeofday () -. t0) *. 1000.0)
  | Protocol.Rejected _ -> Metrics.incr_rejected t.metrics
  | Protocol.Expired -> Metrics.incr_expired t.metrics
  | Protocol.Server_error _ -> Metrics.incr_failed t.metrics
  | _ -> ());
  resp

(* Relay a [Submit] (homed by its projection key, fanned out first when
   so configured) or a [Serve_stage] (homed by that stage's key). *)
let relay t (spec : Protocol.job_spec) ~stage request =
  let t0 = Unix.gettimeofday () in
  match Protocol.experiment_config spec with
  | Error msg -> Protocol.Server_error msg
  | Ok cfg -> (
      let keys = Experiment.stage_keys cfg in
      match List.assoc_opt stage keys with
      | None -> Protocol.Server_error (Printf.sprintf "unknown stage %S" stage)
      | Some key ->
          Metrics.incr_accepted t.metrics;
          Metrics.incr_executed t.metrics;
          (match request with
          | Protocol.Submit _ when t.cfg.fanout_stages ->
              fanout t spec cfg keys
          | _ -> ());
          observe t t0 (dispatch t ~key request))

(* Store requests are proxied along the key's ring route: the first live
   worker that answers usefully wins. *)
let handle_store t ~key request ~miss =
  let members = Hash_ring.route t.ring key in
  let rec go = function
    | [] -> miss
    | m :: rest -> (
        match Hashtbl.find_opt t.table m with
        | Some w when w.alive -> (
            match worker_rpc t w request with
            | Protocol.Store_found _ as r -> r
            | Protocol.Store_ack true as r -> r
            | _ -> go rest
            | exception _ when is_cut t -> miss
            | exception _ ->
                mark_dead t w;
                go rest)
        | _ -> go rest)
  in
  go members

let stats t =
  let queue_depth, in_flight =
    locked t (fun () ->
        List.fold_left
          (fun (q, i) w ->
            if w.alive then (q + w.probe_queue_depth, i + w.in_flight)
            else (q, i))
          (0, 0) t.order)
  in
  Metrics.snapshot t.metrics ~queue_depth ~in_flight

let handle t = function
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Get_stats -> Protocol.Stats_reply (stats t)
  | Protocol.Submit spec as r -> relay t spec ~stage:"projection" r
  | Protocol.Serve_stage { spec; stage } as r -> relay t spec ~stage r
  | Protocol.Store_get key ->
      handle_store t ~key (Protocol.Store_get key) ~miss:Protocol.Store_missing
  | Protocol.Store_put { key; data } ->
      handle_store t ~key
        (Protocol.Store_put { key; data })
        ~miss:(Protocol.Store_ack false)
  | Protocol.Shutdown -> Protocol.Stats_reply (stats t)

(* --- health probes --------------------------------------------------------- *)

let eject_after_failures = 2

(* A probe not answered within the probe period is a failure. *)
let probe_once t w =
  match
    Client.with_client ~max_frame:t.cfg.max_frame
      ~connect_timeout_s:t.cfg.connect_timeout_s w.w_endpoint
      (Client.get_stats ~timeout_s:t.cfg.probe_period_s)
  with
  | stats ->
      locked t (fun () ->
          w.alive <- true;
          w.consecutive_failures <- 0;
          w.probe_queue_depth <- stats.Protocol.queue_depth;
          Condition.broadcast t.cond)
  | exception _ ->
      locked t (fun () ->
          w.consecutive_failures <- w.consecutive_failures + 1;
          if w.consecutive_failures >= eject_after_failures then
            w.alive <- false)

let probe_loop t listener =
  let rec sleep remaining =
    if remaining > 0.0 && not (Listener.stopping listener) then begin
      let step = Float.min 0.05 remaining in
      Thread.delay step;
      sleep (remaining -. step)
    end
  in
  let rec loop () =
    if not (Listener.stopping listener) then begin
      List.iter
        (fun w -> if not (Listener.stopping listener) then probe_once t w)
        t.order;
      sleep t.cfg.probe_period_s;
      loop ()
    end
  in
  loop ()

(* --- lifecycle ------------------------------------------------------------- *)

let start cfg =
  let table = Hashtbl.create 8 in
  let order =
    List.filter_map
      (fun ep ->
        let name = Transport.to_string ep in
        if Hashtbl.mem table name then None
        else begin
          let w =
            {
              w_name = name;
              w_endpoint = ep;
              alive = true;
              in_flight = 0;
              probe_queue_depth = 0;
              consecutive_failures = 0;
            }
          in
          Hashtbl.add table name w;
          Some w
        end)
      cfg.workers
  in
  let st =
    {
      cfg;
      ring = Hash_ring.create (List.map Transport.to_string cfg.workers);
      table;
      order;
      metrics = Metrics.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      calls = [];
      cut = false;
    }
  in
  let listener =
    Listener.start ~max_frame:cfg.max_frame ~cut_off:(fun () -> cut_off st)
      ~handle:(handle st) cfg.listen
  in
  { st; listener; prober = Thread.create (probe_loop st) listener }

let bound t = Listener.bound t.listener

let workers_alive t =
  locked t.st (fun () ->
      List.filter_map
        (fun w -> if w.alive then Some w.w_name else None)
        t.st.order)

(* The prober leaves on its own once the listener is stopping. *)
let stop t =
  Listener.stop t.listener;
  Thread.join t.prober

let run ?(on_ready = ignore) cfg =
  let t = start cfg in
  Listener.run ~on_ready:(fun () -> on_ready t) t.listener;
  Thread.join t.prober
