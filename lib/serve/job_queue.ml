type 'r state =
  | Queued
  | Running
  | Done of ('r, string) result
  | Cancelled

type ('p, 'r) job = {
  jkey : string;
  jpayload : 'p;
  mutable state : 'r state;
  mutable waiters : int;
  (* Latest deadline over live waiters; [None] once any waiter has no
     deadline.  Only consulted at dispatch, to cancel a queued job whose
     every waiter deadline already passed even if the waiters have not yet
     woken to detach themselves. *)
  mutable latest_deadline : float option;
}

type ('p, 'r) ticket = {
  tjob : ('p, 'r) job;
  tdeadline : float option;
  mutable spent : bool;
}

type ('p, 'r) t = {
  mutex : Mutex.t;
  cond : Condition.t;  (* broadcast on any state change and by the ticker *)
  capacity : int;
  cache_capacity : int;
  queue : ('p, 'r) job Queue.t;
  inflight : (string, ('p, 'r) job) Hashtbl.t;  (* Queued + Running *)
  cache : (string, 'r) Hashtbl.t;
  cache_order : string Queue.t;  (* insertion order, for bounded eviction *)
  mutable draining : bool;
  mutable running : int;
  mutable cancelled : int;
  mutable ticker_stop : bool;
  mutable ticker : Thread.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The ticker exists only to bound how long a deadline waiter can sleep:
   OCaml's Condition has no timed wait, so someone must broadcast
   periodically for waiters to recheck the clock. *)
let tick_interval = 0.02

let ticker_loop t =
  let rec loop () =
    Thread.delay tick_interval;
    let stop =
      locked t (fun () ->
          Condition.broadcast t.cond;
          t.ticker_stop)
    in
    if not stop then loop ()
  in
  loop ()

let create ?(cache_capacity = 32) ~capacity () =
  if capacity < 1 then invalid_arg "Job_queue.create: capacity < 1";
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      capacity;
      cache_capacity;
      queue = Queue.create ();
      inflight = Hashtbl.create 16;
      cache = Hashtbl.create 16;
      cache_order = Queue.create ();
      draining = false;
      running = 0;
      cancelled = 0;
      ticker_stop = false;
      ticker = None;
    }
  in
  t.ticker <- Some (Thread.create ticker_loop t);
  t

type ('p, 'r) admission =
  | Enqueued of ('p, 'r) ticket
  | Coalesced of ('p, 'r) ticket
  | Cached of 'r
  | Rejected of { queue_depth : int }

let attach job deadline =
  job.waiters <- job.waiters + 1;
  (match (job.latest_deadline, deadline) with
  | None, _ -> ()
  | Some _, None -> job.latest_deadline <- None
  | Some d0, Some d -> if d > d0 then job.latest_deadline <- Some d);
  { tjob = job; tdeadline = deadline; spent = false }

let submit t ~key ?deadline payload =
  locked t (fun () ->
      match Hashtbl.find_opt t.inflight key with
      | Some job -> Coalesced (attach job deadline)
      | None -> (
          match Hashtbl.find_opt t.cache key with
          | Some r -> Cached r
          | None ->
              if t.draining || Queue.length t.queue >= t.capacity then
                Rejected { queue_depth = Queue.length t.queue }
              else begin
                let job =
                  {
                    jkey = key;
                    jpayload = payload;
                    state = Queued;
                    waiters = 0;
                    latest_deadline = Some neg_infinity;
                  }
                in
                let ticket = attach job deadline in
                Hashtbl.replace t.inflight key job;
                Queue.add job t.queue;
                Condition.broadcast t.cond;
                Enqueued ticket
              end))

let detach job =
  job.waiters <- max 0 (job.waiters - 1)

let await t ticket =
  locked t (fun () ->
      if ticket.spent then `Error "ticket already awaited"
      else begin
        ticket.spent <- true;
        let job = ticket.tjob in
        let rec wait () =
          match job.state with
          | Done (Ok r) -> detach job; `Ok r
          | Done (Error e) -> detach job; `Error e
          | Cancelled -> detach job; `Expired
          | Queued | Running -> (
              match ticket.tdeadline with
              | Some d when Unix.gettimeofday () >= d -> detach job; `Expired
              | _ ->
                  Condition.wait t.cond t.mutex;
                  wait ())
        in
        wait ()
      end)

let expired_job job now =
  job.waiters = 0
  || match job.latest_deadline with Some d -> now >= d | None -> false

let next t =
  locked t (fun () ->
      let rec loop () =
        match Queue.take_opt t.queue with
        | Some job ->
            if expired_job job (Unix.gettimeofday ()) then begin
              job.state <- Cancelled;
              Hashtbl.remove t.inflight job.jkey;
              t.cancelled <- t.cancelled + 1;
              Condition.broadcast t.cond;
              loop ()
            end
            else begin
              job.state <- Running;
              t.running <- t.running + 1;
              `Job job
            end
        | None ->
            if t.draining then `Drained
            else begin
              Condition.wait t.cond t.mutex;
              loop ()
            end
      in
      loop ())

let payload job = job.jpayload
let key job = job.jkey

let cache_insert t key r =
  if t.cache_capacity > 0 then begin
    if not (Hashtbl.mem t.cache key) then Queue.add key t.cache_order;
    Hashtbl.replace t.cache key r;
    while Hashtbl.length t.cache > t.cache_capacity do
      match Queue.take_opt t.cache_order with
      | Some victim -> Hashtbl.remove t.cache victim
      | None -> Hashtbl.reset t.cache
    done
  end

let finish t job result =
  locked t (fun () ->
      job.state <- Done result;
      Hashtbl.remove t.inflight job.jkey;
      t.running <- t.running - 1;
      (match result with
      | Ok r -> cache_insert t job.jkey r
      | Error _ -> ());
      Condition.broadcast t.cond)

let drain t =
  locked t (fun () ->
      t.draining <- true;
      Condition.broadcast t.cond)

let depth t = locked t (fun () -> Queue.length t.queue)
let running t = locked t (fun () -> t.running)
let cancelled t = locked t (fun () -> t.cancelled)

let shutdown t =
  drain t;
  let ticker =
    locked t (fun () ->
        t.ticker_stop <- true;
        let th = t.ticker in
        t.ticker <- None;
        th)
  in
  Option.iter Thread.join ticker
