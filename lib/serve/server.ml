module Parallel = Dl_util.Parallel
module Experiment = Dl_core.Experiment

type config = {
  listen : Transport.endpoint;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  domains_per_worker : int;
  cache_dir : string option;
  max_frame : int;
  remote : Dl_store.Stage.remote option;
  on_job_start : (string -> unit) option;
}

let config ?(workers = 1) ?(queue_capacity = 16) ?(cache_capacity = 32)
    ?(domains_per_worker = Parallel.default_domains ()) ?cache_dir
    ?(max_frame = Protocol.default_max_frame) ?remote
    ?on_job_start ~listen () =
  if workers < 1 then invalid_arg "Server.config: workers < 1";
  (* Each worker runs its jobs on a pool of its own. *)
  if workers * domains_per_worker > Parallel.max_domains then
    invalid_arg
      (Printf.sprintf
         "Server.config: workers x domains_per_worker must be at most %d"
         Parallel.max_domains);
  { listen; workers; queue_capacity; cache_capacity;
    domains_per_worker; cache_dir; max_frame; remote;
    on_job_start }

(* What the scheduler queue carries: whole experiments (the [Submit]
   path) or single stages plus their dependency closure (the cluster
   fan-out path).  The two key spaces are prefixed apart so a
   [Serve_stage "projection"] can never coalesce with a [Submit] whose
   request key is that same projection digest but whose answer has a
   different shape. *)
type task =
  | Run_full of Experiment.config
  | Run_stage of Experiment.config * string

(* A finished job's answer, completed with how each waiter got it. *)
type answer = coalesced:bool -> service_ms:float -> Protocol.response

let queue_key_full key = "full/" ^ key
let queue_key_stage key = "stage/" ^ key

type state = {
  cfg : config;
  store : Dl_store.Store.t option;
  queue : (task, answer) Job_queue.t;
  metrics : Metrics.t;
  mutable worker_threads : Thread.t list;
}

type t = { st : state; listener : Listener.t }

(* --- request handling ---------------------------------------------------- *)

let config_of_spec t =
  Protocol.experiment_config ?cache_dir:t.cfg.cache_dir ?remote:t.cfg.remote

let retry_after_ms t ~queue_depth =
  let mean = Metrics.mean_service_ms t.metrics in
  let backlog = float_of_int (queue_depth + 1) in
  let workers = float_of_int t.cfg.workers in
  (* Clamp in float space: [int_of_float] on a huge product (slow service
     times x deep backlog) is undefined and can come back negative, which
     a client would read as "retry immediately". *)
  let ms = Float.min 60_000.0 (Float.max 50.0 (mean *. backlog /. workers)) in
  int_of_float ms

let service_ms t0 = (Unix.gettimeofday () -. t0) *. 1000.0

(* The one admission path for whole experiments and single stages: refuse
   a deadline that has already passed, file [task] under [key], and
   answer once it has finished. *)
let admit t ~t0 (spec : Protocol.job_spec) ~key task =
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) spec.deadline_ms
  in
  let expired () =
    Metrics.incr_expired t.metrics;
    Protocol.Expired
  in
  let complete ~coalesced (answer : answer) =
    Metrics.incr_completed t.metrics;
    let ms = service_ms t0 in
    Metrics.observe_service_ms t.metrics ms;
    answer ~coalesced ~service_ms:ms
  in
  let await ~coalesced ticket =
    match Job_queue.await t.queue ticket with
    | `Ok r -> complete ~coalesced r
    | `Error msg -> Protocol.Server_error msg
    | `Expired -> expired ()
  in
  match deadline with
  | Some d when Unix.gettimeofday () >= d -> expired ()
  | _ -> (
      match Job_queue.submit t.queue ~key ?deadline task with
      | Job_queue.Rejected { queue_depth } ->
          Metrics.incr_rejected t.metrics;
          Protocol.Rejected
            { retry_after_ms = retry_after_ms t ~queue_depth; queue_depth }
      | Job_queue.Cached r ->
          Metrics.incr_accepted t.metrics;
          Metrics.incr_coalesced t.metrics;
          complete ~coalesced:true r
      | Job_queue.Coalesced ticket ->
          Metrics.incr_accepted t.metrics;
          Metrics.incr_coalesced t.metrics;
          await ~coalesced:true ticket
      | Job_queue.Enqueued ticket ->
          Metrics.incr_accepted t.metrics;
          await ~coalesced:false ticket)

let handle_submit t (spec : Protocol.job_spec) =
  let t0 = Unix.gettimeofday () in
  match config_of_spec t spec with
  | Error msg -> Protocol.Server_error msg
  | Ok cfg ->
      let key = Experiment.request_key cfg in
      admit t ~t0 spec ~key:(queue_key_full key) (Run_full cfg)

(* --- cluster request handling -------------------------------------------- *)

let handle_serve_stage t (spec : Protocol.job_spec) ~stage =
  let t0 = Unix.gettimeofday () in
  match config_of_spec t spec with
  | Error msg -> Protocol.Server_error msg
  | Ok cfg -> (
      match List.assoc_opt stage (Experiment.stage_keys cfg) with
      | None ->
          Protocol.Server_error
            (Printf.sprintf "unknown stage %S (stages: %s)" stage
               (String.concat ", "
                  (List.map fst (Experiment.stage_keys cfg))))
      | Some stage_key ->
          admit t ~t0 spec ~key:(queue_key_stage stage_key)
            (Run_stage (cfg, stage)))

(* Peer store exchange.  [Store_get] never computes — it answers from the
   local artifact store or says so.  [Store_put] validates the offered
   envelope (magic, kind, CRC) before letting it anywhere near disk: a
   corrupt push is acked [false] and discarded, so one bad peer cannot
   poison a store. *)
let handle_store_get t key =
  match t.store with
  | None -> Protocol.Store_missing
  | Some store -> (
      match Dl_store.Store.load store key with
      | None -> Protocol.Store_missing
      | Some data -> Protocol.Store_found (Bytes.to_string data))

let handle_store_put t ~key ~data =
  match t.store with
  | None -> Protocol.Store_ack false
  | Some store -> (
      let bytes = Bytes.of_string data in
      match Dl_store.Codec.inspect ~check_crc:true bytes with
      | Error _ -> Protocol.Store_ack false
      | Ok (kind, version) ->
          Dl_store.Store.put store ~key ~kind ~version bytes;
          Protocol.Store_ack true)

let stats t =
  Metrics.snapshot t.metrics ~queue_depth:(Job_queue.depth t.queue)
    ~in_flight:(Job_queue.running t.queue)

let handle t = function
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Get_stats -> Protocol.Stats_reply (stats t)
  | Protocol.Submit spec -> handle_submit t spec
  | Protocol.Serve_stage { spec; stage } -> handle_serve_stage t spec ~stage
  | Protocol.Store_get key -> handle_store_get t key
  | Protocol.Store_put { key; data } -> handle_store_put t ~key ~data
  | Protocol.Shutdown -> Protocol.Stats_reply (stats t)

(* --- scheduler workers --------------------------------------------------- *)

let worker_loop t () =
  (* One long-lived pool per worker thread: Parallel.t is not re-entrant,
     so pools are owned, never shared, and reused across jobs. *)
  let pool = Parallel.create ~domains:t.cfg.domains_per_worker () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  let stage_outcome : Dl_store.Stage.outcome -> Protocol.stage_outcome =
    function
    | Dl_store.Stage.Hit -> Protocol.Stage_hit
    | Dl_store.Stage.Fetched -> Protocol.Stage_fetched
    | Dl_store.Stage.Miss | Dl_store.Stage.Uncached -> Protocol.Stage_computed
  in
  let rec loop () =
    match Job_queue.next t.queue with
    | `Drained -> ()
    | `Job job ->
        Option.iter (fun f -> f (Job_queue.key job)) t.cfg.on_job_start;
        Metrics.incr_executed t.metrics;
        let result =
          try
            match Job_queue.payload job with
            | Run_full cfg ->
                let cfg = { cfg with Experiment.pool = Some pool } in
                let payload =
                  Protocol.payload_of_experiment
                    ~key:(Experiment.request_key cfg) (Experiment.run cfg)
                in
                Ok
                  (fun ~coalesced ~service_ms ->
                    Protocol.Result { payload; coalesced; service_ms })
            | Run_stage (cfg, stage) -> (
                let cfg = { cfg with Experiment.pool = Some pool } in
                let reports = Experiment.run_stage cfg ~stage in
                match
                  List.find_opt
                    (fun (r : Dl_store.Stage.report) -> r.stage = stage)
                    (List.rev reports)
                with
                | Some r ->
                    let done_ =
                      Protocol.Stage_done
                        {
                          stage;
                          key = r.key;
                          outcome = stage_outcome r.outcome;
                          seconds = r.seconds;
                        }
                    in
                    Ok (fun ~coalesced:_ ~service_ms:_ -> done_)
                | None ->
                    Error
                      (Printf.sprintf "stage %S produced no report" stage))
          with exn ->
            Metrics.incr_failed t.metrics;
            Error (Printexc.to_string exn)
        in
        Job_queue.finish t.queue job result;
        loop ()
  in
  loop ()

(* --- lifecycle ----------------------------------------------------------- *)

(* Stop admitting, let the workers finish every queued and running job
   (publishing all results), then reclaim the queue's ticker. *)
let drain t =
  Job_queue.drain t.queue;
  List.iter Thread.join t.worker_threads;
  Job_queue.shutdown t.queue

let start cfg =
  let st =
    {
      cfg;
      store = Option.map Dl_store.Store.open_ cfg.cache_dir;
      queue =
        Job_queue.create ~cache_capacity:cfg.cache_capacity
          ~capacity:cfg.queue_capacity ();
      metrics = Metrics.create ();
      worker_threads = [];
    }
  in
  st.worker_threads <-
    List.init cfg.workers (fun _ -> Thread.create (worker_loop st) ());
  match
    Listener.start ~max_frame:cfg.max_frame
      ~drain:(fun () -> drain st)
      ~handle:(handle st) cfg.listen
  with
  | listener -> { st; listener }
  | exception e ->
      drain st;
      raise e

let listener t = t.listener
let bound t = Listener.bound t.listener
let stats t = stats t.st
let stop t = Listener.stop t.listener

let run ?(on_ready = ignore) cfg =
  let t = start cfg in
  Listener.run ~on_ready:(fun () -> on_ready t) t.listener
