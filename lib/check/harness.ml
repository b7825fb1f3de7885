(* The checking harness: drives the oracle registry over generated cases
   under a wall-clock budget, shrinks the first failure, and persists a
   replayable repro.  Also hosts the mutation self-test that proves the
   harness actually catches (and minimizes) a planted engine bug. *)

open Dl_netlist
module Fault_sim = Dl_fault.Fault_sim
module Seeds = Dl_util.Seeds
module Stuck_at = Dl_fault.Stuck_at

type config = {
  seed : int;
  seconds : float;
  checks : string list option;
  out_dir : string option;
  max_shrink_checks : int;
}

let config ?(seed = 0) ?(seconds = 5.0) ?checks ?out_dir
    ?(max_shrink_checks = 2000) () =
  { seed; seconds; checks; out_dir; max_shrink_checks }

type failure = {
  check : string;
  message : string;
  case : Testcase.t option;
  shrunk : (Testcase.t * Shrink.stats) option;
  repro_path : string option;
}

type summary = {
  selected : string list;
  sweeps_run : int;
  cases_run : int;
  case_checks_run : int;
  elapsed : float;
  failure : failure option;
}

let ok s = s.failure = None

(* Size schedule: gate counts and vector counts stride with coprime
   periods, so successive cases cover all combinations — including every
   interesting block shape (single vector, 1..63 tails, exact block,
   block+1, multi-block). *)
let gate_sizes = [| 10; 20; 35; 60 |]
let vector_sizes = [| 1; 7; 63; 64; 65; 96; 130 |]

(* Even iterations run the default NAND-rich mix; odd ones cycle through
   the registered workload classes, so every oracle sees every structural
   family (deep chains, XOR trees, heavy reconvergence, ...).  Per-case
   seeds come from a [Seeds] stream keyed by the iteration index, so any
   case replays in isolation from [(cfg.seed, i)]. *)
let family_names = lazy (Array.of_list (Generator.Family.names ()))

let case_of_iteration ~seed i =
  let seeds = Seeds.scope (Seeds.create seed) "harness" in
  let fams = Lazy.force family_names in
  let family =
    if i mod 2 = 0 then None else Some fams.(i / 2 mod Array.length fams)
  in
  Testcase.generate ?family
    ~seed:(Seeds.seed seeds (Printf.sprintf "case-%d" i))
    ~gates:gate_sizes.(i mod Array.length gate_sizes)
    ~n_vectors:vector_sizes.(i mod Array.length vector_sizes)
    ()

let resolve_checks = function
  | None -> Oracle.all
  | Some names ->
      List.map
        (fun n ->
          match Oracle.find n with
          | Some o -> o
          | None ->
              invalid_arg
                (Printf.sprintf "unknown check %S (known: %s)" n
                   (String.concat ", " (Oracle.names ()))))
        names

let shrink_and_save ~cfg ~check ~message (case : Testcase.t)
    (judge : Testcase.t -> string option) =
  let shrunk, stats =
    Shrink.minimize ~max_checks:cfg.max_shrink_checks ~fails:judge case
  in
  let repro_path =
    Option.map
      (fun dir ->
        Testcase.save_repro ~dir
          ~name:(Printf.sprintf "%s-seed%d" check shrunk.Testcase.seed)
          ~check ~message shrunk)
      cfg.out_dir
  in
  { check; message; case = Some case; shrunk = Some (shrunk, stats);
    repro_path }

let run cfg =
  let t0 = Unix.gettimeofday () in
  let selected = resolve_checks cfg.checks in
  let sweeps, cases =
    List.partition (fun (o : Oracle.t) ->
        match o.kind with Oracle.Sweep _ -> true | Oracle.Case _ -> false)
      selected
  in
  let sweeps_run = ref 0 in
  let cases_run = ref 0 in
  let case_checks_run = ref 0 in
  let finish failure =
    {
      selected = List.map (fun (o : Oracle.t) -> o.Oracle.name) selected;
      sweeps_run = !sweeps_run;
      cases_run = !cases_run;
      case_checks_run = !case_checks_run;
      elapsed = Unix.gettimeofday () -. t0;
      failure;
    }
  in
  let rec run_sweeps = function
    | [] -> None
    | (o : Oracle.t) :: rest -> (
        match o.kind with
        | Oracle.Case _ -> run_sweeps rest
        | Oracle.Sweep f -> (
            incr sweeps_run;
            match f ~seed:cfg.seed with
            | None -> run_sweeps rest
            | Some message ->
                Some
                  { check = o.name; message; case = None; shrunk = None;
                    repro_path = None }))
  in
  match run_sweeps sweeps with
  | Some f -> finish (Some f)
  | None ->
      if cases = [] then finish None
      else begin
        let deadline = t0 +. cfg.seconds in
        let rec iterate i =
          (* always complete at least one full case, however small the
             budget *)
          if i > 0 && Unix.gettimeofday () >= deadline then finish None
          else begin
            let case = case_of_iteration ~seed:cfg.seed i in
            let rec judge_all = function
              | [] ->
                  incr cases_run;
                  iterate (i + 1)
              | (o : Oracle.t) :: rest -> (
                  match o.kind with
                  | Oracle.Sweep _ -> judge_all rest
                  | Oracle.Case f -> (
                      incr case_checks_run;
                      match f case with
                      | None -> judge_all rest
                      | Some message ->
                          finish
                            (Some
                               (shrink_and_save ~cfg ~check:o.name ~message
                                  case f))))
            in
            judge_all cases
          end
        in
        iterate 0
      end

let pp_summary ppf s =
  Format.fprintf ppf "dl_check: %d checks (%s)@\n" (List.length s.selected)
    (String.concat ", " s.selected);
  Format.fprintf ppf
    "  %d sweeps, %d cases (%d case-checks) in %.2f s@\n" s.sweeps_run
    s.cases_run s.case_checks_run s.elapsed;
  match s.failure with
  | None -> Format.fprintf ppf "  all checks passed@."
  | Some f ->
      Format.fprintf ppf "  FAILED %s: %s@\n" f.check f.message;
      Option.iter
        (fun c -> Format.fprintf ppf "  original: %a@\n" Testcase.pp c)
        f.case;
      Option.iter
        (fun (c, stats) ->
          Format.fprintf ppf "  shrunk:   %a@\n  shrink:   %a@\n" Testcase.pp
            c Shrink.pp_stats stats)
        f.shrunk;
      (match f.repro_path with
      | Some p -> Format.fprintf ppf "  repro:    %s@." p
      | None -> Format.fprintf ppf "  repro:    (no --out directory)@.")

(* --- replay -------------------------------------------------------------- *)

(* The mutant is judged against both correct engines — the wide
   FFR-inference engine and the reference it is pinned against — so the
   self-test also proves each can serve as a bug detector (and, for
   [Pristine], that the mutants' derivation from the reference's event
   stream agrees with the wide engine). *)
let mutant_disagreement m (case : Testcase.t) =
  let got = Mutant.run m case.circuit ~faults:case.faults ~vectors:case.vectors in
  let n = Array.length case.faults in
  let scan_against engine_name (want : Fault_sim.result) =
    let rec scan i =
      if i >= n then None
      else if got.Fault_sim.first_detection.(i)
              <> want.Fault_sim.first_detection.(i)
      then
        Some
          (Printf.sprintf "mutant %s: fault %s first-detected at %s, %s \
                           says %s"
             (Mutant.to_string m)
             (Stuck_at.to_string case.circuit case.faults.(i))
             (match got.Fault_sim.first_detection.(i) with
             | Some d -> string_of_int d
             | None -> "never")
             engine_name
             (match want.Fault_sim.first_detection.(i) with
             | Some d -> string_of_int d
             | None -> "never"))
      else scan (i + 1)
    in
    scan 0
  in
  match
    scan_against "wide engine"
      (Fault_sim.run ~drop_detected:false case.circuit ~faults:case.faults
         ~vectors:case.vectors)
  with
  | Some _ as d -> d
  | None ->
      scan_against "reference engine"
        (Fault_sim.Reference.run ~drop_detected:false case.circuit
           ~faults:case.faults ~vectors:case.vectors)

let mutant_check_prefix = "mutant:"

let replay (r : Testcase.repro) =
  let name = r.Testcase.check in
  if String.length name > String.length mutant_check_prefix
     && String.sub name 0 (String.length mutant_check_prefix)
        = mutant_check_prefix
  then begin
    let mname =
      String.sub name
        (String.length mutant_check_prefix)
        (String.length name - String.length mutant_check_prefix)
    in
    match List.assoc_opt mname Mutant.all with
    | Some m -> (name, mutant_disagreement m r.Testcase.case)
    | None -> invalid_arg (Printf.sprintf "unknown mutant %S" mname)
  end
  else
    match Oracle.find name with
    | Some { kind = Oracle.Case f; _ } -> (name, f r.Testcase.case)
    | Some { kind = Oracle.Sweep f; _ } ->
        (name, f ~seed:r.Testcase.case.Testcase.seed)
    | None -> invalid_arg (Printf.sprintf "unknown check %S" name)

(* --- mutation self-test --------------------------------------------------- *)

type self_report = {
  mutant : string;
  caught : bool;
  attempts : int;
  message : string;
  shrunk_gates : int;
  shrink : Shrink.stats option;
  repro_path : string option;
}

let self_test ?out_dir ?(max_attempts = 48) ?(seed = 0) () =
  (* >64 vectors so a whole-block mutation is observable; mid-size
     circuits so late and high-bit first detections exist. *)
  let case_for attempt =
    Testcase.generate
      ~seed:((seed * 7919) + (attempt * 131) + 17)
      ~gates:(30 + (17 * attempt mod 31))
      ~n_vectors:130 ()
  in
  (* The pristine derivation must agree with the real engine: otherwise a
     caught "mutant" might only witness a fault in the derivation. *)
  let pristine_report =
    let rec scan attempt =
      if attempt >= 4 then None
      else
        match mutant_disagreement Mutant.Pristine (case_for attempt) with
        | Some m -> Some m
        | None -> scan (attempt + 1)
    in
    match scan 0 with
    | Some m ->
        { mutant = "pristine"; caught = true; attempts = 4; message = m;
          shrunk_gates = 0; shrink = None; repro_path = None }
    | None ->
        { mutant = "pristine"; caught = false; attempts = 4;
          message = "pristine derivation matches the real engine";
          shrunk_gates = 0; shrink = None; repro_path = None }
  in
  let test_mutant (mname, m) =
    let judge = mutant_disagreement m in
    let rec hunt attempt =
      if attempt >= max_attempts then
        { mutant = mname; caught = false; attempts = attempt;
          message = "no disagreement found"; shrunk_gates = 0; shrink = None;
          repro_path = None }
      else begin
        let case = case_for attempt in
        match judge case with
        | None -> hunt (attempt + 1)
        | Some message ->
            let shrunk, stats = Shrink.minimize ~fails:judge case in
            let repro_path =
              Option.map
                (fun dir ->
                  Testcase.save_repro ~dir
                    ~name:(Printf.sprintf "mutant-%s-seed%d" mname
                             shrunk.Testcase.seed)
                    ~check:(mutant_check_prefix ^ mname)
                    ~message shrunk)
                out_dir
            in
            { mutant = mname; caught = true; attempts = attempt + 1; message;
              shrunk_gates = Circuit.gate_count shrunk.Testcase.circuit;
              shrink = Some stats; repro_path }
      end
    in
    hunt 0
  in
  let reports = pristine_report :: List.map test_mutant Mutant.all in
  let ok =
    List.for_all
      (fun r ->
        if r.mutant = "pristine" then not r.caught
        else r.caught && r.shrunk_gates <= 20)
      reports
  in
  (reports, ok)

let pp_self_report ppf (r : self_report) =
  if r.mutant = "pristine" then
    Format.fprintf ppf "  %-26s %s@\n" r.mutant
      (if r.caught then "DRIFT: " ^ r.message else "ok (no false positive)")
  else if not r.caught then
    Format.fprintf ppf "  %-26s NOT CAUGHT after %d cases@\n" r.mutant
      r.attempts
  else begin
    Format.fprintf ppf "  %-26s caught (case %d), shrunk to %d gates%s@\n"
      r.mutant r.attempts r.shrunk_gates
      (match r.repro_path with
      | Some p -> Printf.sprintf ", repro %s" p
      | None -> "");
    Option.iter
      (fun s -> Format.fprintf ppf "  %-26s %a@\n" "" Shrink.pp_stats s)
      r.shrink
  end

let pp_self_reports ppf (reports, ok) =
  Format.fprintf ppf "mutation self-test:@\n";
  List.iter (pp_self_report ppf) reports;
  Format.fprintf ppf "  %s@."
    (if ok then "self-test passed: planted bugs are caught and shrunk"
     else "SELF-TEST FAILED")
