(* Tests for the Dl_check subsystem itself: the harness, the shrinker, the
   repro format, and the mutation self-test that anchors the whole PR. *)

open Dl_check
module Circuit = Dl_netlist.Circuit

let tmp_dir suffix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dlcheck-test-%d-%s" (Unix.getpid ()) suffix)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun e -> remove_tree (Filename.concat path e))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmp_dir suffix f =
  let dir = tmp_dir suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove_tree dir)
    (fun () -> f dir)

(* --- harness ---------------------------------------------------------------- *)

(* Case checks only, tiny budget: at least one full case must run and pass. *)
let test_harness_case_smoke () =
  let cfg =
    Harness.config ~seed:3 ~seconds:0.3
      ~checks:[ "sim2-flat"; "sim3-binary"; "coverage-monotone" ] ()
  in
  let s = Harness.run cfg in
  Alcotest.(check bool) "passes" true (Harness.ok s);
  Alcotest.(check int) "no sweeps selected" 0 s.Harness.sweeps_run;
  Alcotest.(check bool) "at least one case" true (s.Harness.cases_run >= 1);
  Alcotest.(check int) "three checks per case"
    (3 * s.Harness.cases_run)
    s.Harness.case_checks_run

(* The equation sweeps are cheap and deterministic: all five run and pass. *)
let test_harness_sweep_smoke () =
  let cfg =
    Harness.config ~seed:11 ~seconds:0.1
      ~checks:
        [ "eq11-wb"; "eq9-theta"; "eq11-dl"; "yield-weights";
          "required-coverage" ]
      ()
  in
  let s = Harness.run cfg in
  Alcotest.(check bool) "passes" true (Harness.ok s);
  Alcotest.(check int) "all sweeps run" 5 s.Harness.sweeps_run;
  Alcotest.(check int) "no cases" 0 s.Harness.cases_run

let test_harness_unknown_check () =
  Alcotest.check_raises "unknown name rejected"
    (Invalid_argument
       (Printf.sprintf "unknown check %S (known: %s)" "no-such-check"
          (String.concat ", " (Oracle.names ()))))
    (fun () ->
      ignore (Harness.run (Harness.config ~checks:[ "no-such-check" ] ())))

let test_registry_is_consistent () =
  let names = Oracle.names () in
  Alcotest.(check int) "twenty-four checks" 24 (List.length names);
  List.iter
    (fun n ->
      match Oracle.find n with
      | Some o -> Alcotest.(check string) "find returns it" n o.Oracle.name
      | None -> Alcotest.failf "registered name %S not found" n)
    names;
  Alcotest.(check bool) "unknown is None" true (Oracle.find "nope" = None)

(* --- shrinker --------------------------------------------------------------- *)

(* An always-failing predicate must shrink to the smallest representable
   case: no vectors, no faults, and a circuit reduced to (near) its PIs. *)
let test_shrink_always_failing () =
  let case = Testcase.generate ~seed:21 ~gates:40 ~n_vectors:96 () in
  let fails _ = Some "always" in
  let shrunk, stats = Shrink.minimize ~fails case in
  Alcotest.(check bool) "still fails" true (fails shrunk <> None);
  Alcotest.(check int) "no vector left" 0
    (Array.length shrunk.Testcase.vectors);
  Alcotest.(check int) "no fault left" 0
    (Array.length shrunk.Testcase.faults);
  Alcotest.(check bool) "gates reduced" true
    (Circuit.gate_count shrunk.Testcase.circuit
    < Circuit.gate_count case.Testcase.circuit);
  Alcotest.(check int) "stats: before sizes" 96 stats.Shrink.vectors_before;
  Alcotest.(check int) "stats: after sizes" 0 stats.Shrink.vectors_after;
  Alcotest.(check bool) "stats: spent checks" true (stats.Shrink.checks > 0)

(* A predicate keyed to a property of the case ("at least k faults survive
   and some vector has an odd popcount") keeps the witness through every
   accepted reduction — the shrunk case must still satisfy it. *)
let test_shrink_preserves_predicate () =
  let case = Testcase.generate ~seed:8 ~gates:35 ~n_vectors:70 () in
  let odd v = Array.fold_left (fun n b -> if b then n + 1 else n) 0 v mod 2 = 1 in
  let fails (c : Testcase.t) =
    if Array.length c.faults >= 3 && Array.exists odd c.vectors then
      Some "witness"
    else None
  in
  Alcotest.(check bool) "original fails" true (fails case <> None);
  let shrunk, stats = Shrink.minimize ~fails case in
  Alcotest.(check bool) "shrunk still fails" true (fails shrunk <> None);
  Alcotest.(check int) "faults at the floor" 3
    (Array.length shrunk.Testcase.faults);
  Alcotest.(check int) "vectors at the floor" 1
    (Array.length shrunk.Testcase.vectors);
  Alcotest.(check bool) "monotone gate count" true
    (stats.Shrink.gates_after <= stats.Shrink.gates_before)

let test_shrink_respects_budget () =
  let case = Testcase.generate ~seed:5 ~gates:60 ~n_vectors:130 () in
  let calls = ref 0 in
  let fails _ =
    incr calls;
    Some "always"
  in
  let _, stats = Shrink.minimize ~max_checks:50 ~fails case in
  Alcotest.(check int) "stats agree with predicate calls" !calls
    stats.Shrink.checks;
  (* one in-flight candidate may finish after the budget trips *)
  Alcotest.(check bool) "budget respected" true (stats.Shrink.checks <= 51)

(* --- repro roundtrip -------------------------------------------------------- *)

let test_repro_roundtrip () =
  with_tmp_dir "roundtrip" (fun dir ->
      let case = Testcase.generate ~seed:42 ~gates:25 ~n_vectors:65 () in
      let path =
        Testcase.save_repro ~dir ~name:"rt" ~check:"sim2-flat"
          ~message:"synthetic message, with: punctuation" case
      in
      let r = Testcase.load_repro path in
      Alcotest.(check string) "check name" "sim2-flat" r.Testcase.check;
      Alcotest.(check string) "message" "synthetic message, with: punctuation"
        r.Testcase.message;
      let c = r.Testcase.case in
      Alcotest.(check int) "seed" case.Testcase.seed c.Testcase.seed;
      Alcotest.(check int) "gate count"
        (Circuit.gate_count case.Testcase.circuit)
        (Circuit.gate_count c.Testcase.circuit);
      Alcotest.(check bool) "vectors identical" true
        (case.Testcase.vectors = c.Testcase.vectors);
      Alcotest.(check int) "fault count"
        (Array.length case.Testcase.faults)
        (Array.length c.Testcase.faults);
      (* a healthy engine passes its own saved case: replay says so *)
      let name, verdict = Harness.replay r in
      Alcotest.(check string) "replayed check" "sim2-flat" name;
      Alcotest.(check bool) "no longer failing" true (verdict = None))

(* The switch-level oracle derives its realistic faults from the case's
   circuit alone, so a saved case replays, and shrinking keeps it
   judgeable. *)
let test_swift_reference_repro () =
  with_tmp_dir "swift" (fun dir ->
      let case = Testcase.generate ~family:"tree-like" ~seed:5 ~gates:20 ~n_vectors:7 () in
      let judge = match Oracle.find "swift-reference" with
        | Some { Oracle.kind = Oracle.Case f; _ } -> f
        | _ -> Alcotest.fail "swift-reference is not a case check"
      in
      Alcotest.(check (option string)) "passes" None (judge case);
      (* Every candidate the shrinker builds is judged on the way. *)
      let shrunk, _ =
        Shrink.minimize ~max_checks:50
          ~fails:(fun c ->
            ignore (judge c);
            if Array.length c.Testcase.vectors > 0 then Some "has vectors" else None)
          case
      in
      Alcotest.(check (option string)) "shrunk case passes" None (judge shrunk);
      let path =
        Testcase.save_repro ~dir ~name:"sw" ~check:"swift-reference" ~message:"m" case
      in
      let name, verdict = Harness.replay (Testcase.load_repro path) in
      Alcotest.(check string) "replayed check" "swift-reference" name;
      Alcotest.(check bool) "no longer failing" true (verdict = None))

(* The observability table against flip walks on a real flow's input: the
   mapped c432s_small and the vectors its default pipeline applies. *)
let test_swift_observability_pipeline () =
  let e =
    Dl_core.Experiment.run
      (Dl_core.Experiment.config ~domains:1 (Option.get (Dl_netlist.Benchmarks.by_name "c432s_small")))
  in
  let case =
    { Testcase.seed = 7; circuit = e.mapped_circuit; vectors = e.vectors; faults = [||] }
  in
  let judge = match Oracle.find "swift-observability" with
    | Some { Oracle.kind = Oracle.Case f; _ } -> f
    | _ -> Alcotest.fail "swift-observability is not a case check"
  in
  Alcotest.(check bool) "some vectors" true (Array.length e.vectors > 16);
  Alcotest.(check (option string)) "passes" None (judge case)

(* The PODEM oracle also derives its faults from the case's circuit alone. *)
let test_podem_reference_repro () =
  with_tmp_dir "podem" (fun dir ->
      let case = Testcase.generate ~family:"reconvergent" ~seed:3 ~gates:20 ~n_vectors:5 () in
      let judge = match Oracle.find "podem-reference" with
        | Some { Oracle.kind = Oracle.Case f; _ } -> f
        | _ -> Alcotest.fail "podem-reference is not a case check"
      in
      Alcotest.(check (option string)) "passes" None (judge case);
      let shrunk, _ =
        Shrink.minimize ~max_checks:50
          ~fails:(fun c ->
            ignore (judge c);
            if Circuit.gate_count c.Testcase.circuit > 3 then Some "big" else None)
          case
      in
      Alcotest.(check (option string)) "shrunk case passes" None (judge shrunk);
      let path =
        Testcase.save_repro ~dir ~name:"pd" ~check:"podem-reference" ~message:"m" case
      in
      let name, verdict = Harness.replay (Testcase.load_repro path) in
      Alcotest.(check string) "replayed check" "podem-reference" name;
      Alcotest.(check bool) "no longer failing" true (verdict = None))

(* A repro file brings its fault list in from disk, so a hand-edited or
   stale one can name a pin its gate does not have.  Replaying it must fail
   with the simulator's one-line Invalid_argument, never judge the fault. *)
let test_out_of_range_repro () =
  with_tmp_dir "range" (fun dir ->
      let case = Testcase.generate ~seed:11 ~gates:20 ~n_vectors:9 () in
      let c = case.Testcase.circuit in
      let gate = c.Circuit.outputs.(0) in
      let pin = Array.length c.Circuit.nodes.(gate).Circuit.fanin + 3 in
      let bad =
        { Dl_fault.Stuck_at.site = Dl_fault.Stuck_at.Branch { gate; pin };
          polarity = Dl_fault.Stuck_at.Sa0 }
      in
      let case = Testcase.with_faults case (Array.append case.faults [| bad |]) in
      let path =
        Testcase.save_repro ~dir ~name:"range" ~check:"fault-sim" ~message:"m"
          case
      in
      match Harness.replay (Testcase.load_repro path) with
      | _ -> Alcotest.fail "out-of-range pin was judged"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "one line" false (String.contains msg '\n');
          Alcotest.(check bool)
            (Printf.sprintf "names the pin: %s" msg)
            true
            (let sub = Printf.sprintf ".in%d" pin in
             let n = String.length sub in
             let rec at i =
               i + n <= String.length msg
               && (String.sub msg i n = sub || at (i + 1))
             in
             at 0))

(* --- mutation self-test ----------------------------------------------------- *)

let test_mutation_self_test () =
  with_tmp_dir "selftest" (fun dir ->
      let reports, ok = Harness.self_test ~out_dir:dir ~seed:0 () in
      Alcotest.(check bool) "self-test verdict" true ok;
      Alcotest.(check int) "pristine + both mutants"
        (1 + List.length Mutant.all)
        (List.length reports);
      List.iter
        (fun (r : Harness.self_report) ->
          if r.Harness.mutant = "pristine" then
            Alcotest.(check bool) "pristine clean" false r.Harness.caught
          else begin
            Alcotest.(check bool)
              (r.Harness.mutant ^ " caught")
              true r.Harness.caught;
            Alcotest.(check bool)
              (r.Harness.mutant ^ " shrunk to <= 20 gates")
              true
              (r.Harness.shrunk_gates <= 20);
            (* the persisted repro replays to a still-failing verdict *)
            match r.Harness.repro_path with
            | None -> Alcotest.failf "%s: no repro written" r.Harness.mutant
            | Some p ->
                let _, verdict = Harness.replay (Testcase.load_repro p) in
                Alcotest.(check bool)
                  (r.Harness.mutant ^ " repro reproduces")
                  true (verdict <> None)
          end)
        reports)

(* --- qcheck: the oracles hold over random seeds ----------------------------- *)

let case_checks =
  List.filter_map
    (fun (o : Oracle.t) ->
      match o.Oracle.kind with
      | Oracle.Case f -> Some (o.Oracle.name, f)
      | Oracle.Sweep _ -> None)
    Oracle.all

let prop_case_oracles_pass =
  QCheck.Test.make ~name:"every case oracle passes on generated cases"
    ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let case =
        Testcase.generate ~seed ~gates:(12 + (seed mod 30))
          ~n_vectors:(1 + (seed mod 70))
          ()
      in
      List.for_all
        (fun (name, f) ->
          match f case with
          | None -> true
          | Some m -> QCheck.Test.fail_reportf "%s: %s" name m)
        case_checks)

let () =
  Alcotest.run "dl_check"
    [
      ( "harness",
        [
          Alcotest.test_case "case-check smoke" `Quick test_harness_case_smoke;
          Alcotest.test_case "sweep smoke" `Quick test_harness_sweep_smoke;
          Alcotest.test_case "unknown check rejected" `Quick
            test_harness_unknown_check;
          Alcotest.test_case "registry consistent" `Quick
            test_registry_is_consistent;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "always-failing floor" `Quick
            test_shrink_always_failing;
          Alcotest.test_case "predicate preserved" `Quick
            test_shrink_preserves_predicate;
          Alcotest.test_case "check budget" `Quick test_shrink_respects_budget;
        ] );
      ( "repro",
        [
          Alcotest.test_case "save/load/replay" `Quick test_repro_roundtrip;
          Alcotest.test_case "swift-reference replays" `Quick test_swift_reference_repro;
          Alcotest.test_case "podem-reference replays" `Quick test_podem_reference_repro;
          Alcotest.test_case "swift-observability on c432s_small's vectors" `Quick
            test_swift_observability_pipeline;
          Alcotest.test_case "out-of-range fault rejected on replay" `Quick
            test_out_of_range_repro;
        ] );
      ( "self-test",
        [
          Alcotest.test_case "mutants caught and shrunk" `Quick
            test_mutation_self_test;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_case_oracles_pass ] );
    ]
