(** Bounded FIFO job queue with request coalescing, per-waiter deadlines
    and a small result cache — the admission-control heart of the server.

    Every job is filed under a caller-supplied {e key} (the server uses
    {!Dl_core.Experiment.request_key}).  Submitting a key that is already
    queued or running attaches the caller as an additional waiter of the
    existing job; submitting a key whose result is still in the bounded
    cache answers immediately.  Either way only one execution ever happens
    per key — the fan-out the acceptance test counts.

    Deadlines are per waiter: a waiter whose absolute deadline passes
    while the job is unfinished gets [`Expired] and detaches.  A {e
    queued} job whose waiters have all detached (or whose latest waiter
    deadline has already passed) is cancelled at dispatch, never run; a
    running job always completes.

    Threads: [submit]/[await] are called from connection threads, [next]/
    [finish] from scheduler workers; all state is guarded by one internal
    lock and one condition, broadcast by a built-in ticker so deadline
    waiters wake without timed waits (OCaml's [Condition] has none). *)

type ('p, 'r) t
(** ['p] is the job payload handed to the worker, ['r] the result. *)

type ('p, 'r) job
type ('p, 'r) ticket

val create : ?cache_capacity:int -> capacity:int -> unit -> ('p, 'r) t
(** [capacity] bounds the number of {e queued} jobs (running jobs are not
    counted); [cache_capacity] (default 32, 0 disables) bounds the
    completed-result cache.  Spawns the ticker thread — call {!shutdown}
    to reclaim it. *)

type ('p, 'r) admission =
  | Enqueued of ('p, 'r) ticket   (** New job; this caller is its first waiter. *)
  | Coalesced of ('p, 'r) ticket  (** Attached to an identical in-flight job. *)
  | Cached of 'r                  (** Answered from the result cache. *)
  | Rejected of { queue_depth : int }
      (** Queue full, or the queue is draining. *)

val submit :
  ('p, 'r) t -> key:string -> ?deadline:float -> 'p -> ('p, 'r) admission
(** [deadline] is absolute ([Unix.gettimeofday] scale). *)

val await :
  ('p, 'r) t -> ('p, 'r) ticket -> [ `Ok of 'r | `Error of string | `Expired ]
(** Block until the ticket's job finishes or the ticket's deadline passes.
    Detaches the waiter in every case; awaiting a ticket twice returns
    [`Error]. *)

val next : ('p, 'r) t -> [ `Job of ('p, 'r) job | `Drained ]
(** Worker side: block for the next runnable job, transparently cancelling
    queued jobs with no live waiters left.  [`Drained] once {!drain} was
    called and the queue is empty — the worker's signal to exit. *)

val payload : ('p, 'r) job -> 'p
val key : ('p, 'r) job -> string

val finish : ('p, 'r) t -> ('p, 'r) job -> ('r, string) result -> unit
(** Publish the result, wake all waiters, and (on [Ok]) insert it into the
    result cache. *)

val drain : ('p, 'r) t -> unit
(** Stop admitting: subsequent {!submit}s are [Rejected]; workers keep
    draining already-queued jobs until {!next} returns [`Drained]. *)

val depth : ('p, 'r) t -> int
(** Queued (not yet dispatched) jobs, including not-yet-skipped cancelled
    ones. *)

val running : ('p, 'r) t -> int

val cancelled : ('p, 'r) t -> int
(** Queued jobs cancelled at dispatch because every waiter had detached or
    expired — they never ran. *)

val shutdown : ('p, 'r) t -> unit
(** Drain (if not already) and join the ticker thread.  Idempotent. *)
