type job = {
  f : int -> unit;
  total : int;
  cursor : int Atomic.t;      (* next task index to claim *)
  unfinished : int Atomic.t;  (* tasks claimed-or-unclaimed but not completed *)
  mutable error : exn option; (* first exception raised by a task *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable current : job option;
  mutable epoch : int;   (* bumped once per submitted job *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let default_domains () = Domain.recommended_domain_count ()

(* [Max_domains] of the OCaml 5.1 runtime; [Domain.spawn] fails past it. *)
let max_domains = 128

(* Claim and execute tasks until the job's cursor is exhausted.  The last
   worker to complete a task signals the submitter. *)
let execute t job =
  let rec claim () =
    let i = Atomic.fetch_and_add job.cursor 1 in
    if i < job.total then begin
      (try job.f i
       with e ->
         Mutex.lock t.mutex;
         if job.error = None then job.error <- Some e;
         Mutex.unlock t.mutex);
      if Atomic.fetch_and_add job.unfinished (-1) = 1 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.work_done;
        Mutex.unlock t.mutex
      end;
      claim ()
    end
  in
  claim ()

let rec worker_loop t last_epoch =
  Mutex.lock t.mutex;
  (* Wait for a job this worker has not joined yet.  A worker can be
     scheduled so late that the submitter already finished the whole job
     alone and cleared [t.current]; any epoch bump observed while
     [t.current = None] therefore belongs to a completed job and is only
     recorded, never dereferenced. *)
  let seen = ref last_epoch in
  while (not t.stopping) && (t.current = None || t.epoch = !seen) do
    if t.current = None then seen := t.epoch;
    Condition.wait t.work_ready t.mutex
  done;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    let epoch = t.epoch in
    let job = Option.get t.current in
    Mutex.unlock t.mutex;
    execute t job;
    worker_loop t epoch
  end

let create ?domains () =
  let size = match domains with None -> default_domains () | Some d -> d in
  if size < 1 then invalid_arg "Parallel.create: need at least one domain";
  if size > max_domains then
    invalid_arg
      (Printf.sprintf "Parallel.create: at most %d domains, got %d" max_domains
         size);
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      current = None;
      epoch = 0;
      stopping = false;
      workers = [];
    }
  in
  (* A domain that joins while the caller's minor heap holds live data
     takes part in promoting it, into major-heap pools of its own that
     outlive it.  On a c432s_small pipeline that cost ~0.7 MiB of major
     heap per spawn site; emptying the minor heap first avoids it. *)
  if size > 1 then Gc.minor ();
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let size t = t.size

let run t ~tasks f =
  if tasks < 0 then invalid_arg "Parallel.run: negative task count";
  if tasks > 0 then begin
    let job =
      { f; total = tasks; cursor = Atomic.make 0; unfinished = Atomic.make tasks;
        error = None }
    in
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.run: pool is shut down"
    end;
    t.current <- Some job;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (* The calling domain is a worker too. *)
    execute t job;
    Mutex.lock t.mutex;
    while Atomic.get job.unfinished > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.current <- None;
    Mutex.unlock t.mutex;
    match job.error with Some e -> raise e | None -> ()
  end

let map t ~tasks f =
  if tasks = 0 then [||]
  else begin
    let results = Array.make tasks None in
    run t ~tasks (fun i -> results.(i) <- Some (f i));
    Array.map Option.get results
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
