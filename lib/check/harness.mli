(** The checking harness behind [dlproj check].

    [run] first evaluates the selected sweep checks once, then generates
    {!Testcase}s on a size schedule covering every interesting 64-pattern
    block shape (1 vector, 1..63 tails, exact blocks, multi-block) and
    judges each against every selected case check until the wall-clock
    budget expires.  The first failure is {!Shrink.minimize}d and, when
    [out_dir] is set, persisted as a replayable repro pair
    ({!Testcase.save_repro}). *)

type config = {
  seed : int;
  seconds : float;                (** Case-generation wall-clock budget. *)
  checks : string list option;    (** [None] = the whole registry. *)
  out_dir : string option;        (** Where failing repros are written. *)
  max_shrink_checks : int;
}

val config :
  ?seed:int -> ?seconds:float -> ?checks:string list -> ?out_dir:string ->
  ?max_shrink_checks:int -> unit -> config
(** Defaults: seed 0, 5 s, all checks, no repro directory, 2000 shrink
    evaluations. *)

type failure = {
  check : string;
  message : string;
  case : Testcase.t option;       (** [None] for sweep checks. *)
  shrunk : (Testcase.t * Shrink.stats) option;
  repro_path : string option;
}

type summary = {
  selected : string list;
  sweeps_run : int;
  cases_run : int;
  case_checks_run : int;
  elapsed : float;
  failure : failure option;       (** The harness stops at the first. *)
}

val run : config -> summary
(** @raise Invalid_argument if [checks] names an unknown check. *)

val ok : summary -> bool

val pp_summary : Format.formatter -> summary -> unit
(** The one-screen report. *)

val replay : Testcase.repro -> string * string option
(** Re-judge a saved repro with the check (or [mutant:*] predicate) named
    inside it; returns the check name and its verdict ([None] = the case
    no longer fails). *)

(** {2 Mutation self-test}

    Proof that the harness catches real engine bugs: each planted PPSFP
    mutant ({!Mutant.all}) is run differentially against
    {!Dl_fault.Fault_sim.run} until a disagreement is found, which is then
    shrunk; the pristine mutant must produce no disagreement at all. *)

type self_report = {
  mutant : string;
  caught : bool;
  attempts : int;          (** Cases generated up to (and incl.) the catch. *)
  message : string;
  shrunk_gates : int;
  shrink : Shrink.stats option;
  repro_path : string option;
}

val self_test :
  ?out_dir:string -> ?max_attempts:int -> ?seed:int -> unit ->
  self_report list * bool
(** Returns per-mutant reports (pristine first) and the overall verdict:
    every real mutant caught and shrunk to at most 20 gates, and the
    pristine mutant clean. *)

val pp_self_reports : Format.formatter -> self_report list * bool -> unit
