open Dl_netlist
open Dl_fault

let rng = Dl_util.Rng.create 202

let random_vectors c n =
  Array.init n (fun _ ->
      Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))

(* --- Stuck_at universe and collapsing --------------------------------------- *)

let test_universe_size_c17 () =
  let c = Benchmarks.c17 () in
  (* c17: 11 stems; fanout > 1 nets: n3, n11, n16 -> 2 branches each.
     Lines = 11 + 6 = 17; faults = 34. *)
  let u = Stuck_at.universe c in
  Alcotest.(check int) "universe" 34 (Array.length u)

let test_universe_sorted_unique () =
  let c = Benchmarks.c432s () in
  let u = Stuck_at.universe c in
  for i = 0 to Array.length u - 2 do
    Alcotest.(check bool) "strictly sorted" true (Stuck_at.compare u.(i) u.(i + 1) < 0)
  done

(* [universe] and [checkpoints] emit faults already in [compare] order
   without sorting: each must equal its own sorted copy, with no
   duplicates, on circuits of every generator family. *)
let test_enumeration_sorted_random () =
  List.iter
    (fun family ->
      List.iter
        (fun seed ->
          let c = Generator.Family.build_by_name family ~seed ~gates:(15 + (seed * 23)) in
          List.iter
            (fun (what, faults) ->
              let sorted = Array.copy faults in
              Array.sort Stuck_at.compare sorted;
              let label = Printf.sprintf "%s %s seed %d" what family seed in
              Alcotest.(check bool) (label ^ " sorted") true (faults = sorted);
              for i = 0 to Array.length faults - 2 do
                Alcotest.(check bool) (label ^ " unique") true
                  (not (Stuck_at.equal faults.(i) faults.(i + 1)))
              done)
            [ ("universe", Stuck_at.universe c); ("checkpoints", Stuck_at.checkpoints c) ])
        [ 1; 2; 3; 4 ])
    (Generator.Family.names ())

let test_collapse_c17 () =
  let c = Benchmarks.c17 () in
  let u = Stuck_at.universe c in
  let collapsed = Stuck_at.collapse c u in
  (* Known result for c17 under equivalence collapsing: 22 faults. *)
  Alcotest.(check int) "collapsed" 22 (Array.length collapsed);
  (* classes partition the universe *)
  let classes = Stuck_at.equivalence_classes c u in
  let total = Array.fold_left (fun acc cls -> acc + Array.length cls) 0 classes in
  Alcotest.(check int) "partition" (Array.length u) total;
  Alcotest.(check int) "one representative each" (Array.length collapsed)
    (Array.length classes)

let test_collapse_detection_equivalent () =
  (* every fault in a class is detected by exactly the same vectors *)
  let c = Benchmarks.c17 () in
  let u = Stuck_at.universe c in
  let classes = Stuck_at.equivalence_classes c u in
  let vectors = random_vectors c 16 in
  Array.iter
    (fun cls ->
      if Array.length cls > 1 then
        Array.iter
          (fun v ->
            let d0 = Fault_sim.detects_fault c cls.(0) v in
            Array.iter
              (fun f ->
                Alcotest.(check bool) "class detection agrees" d0
                  (Fault_sim.detects_fault c f v))
              cls)
          vectors)
    classes

let test_checkpoints_subset () =
  let c = Benchmarks.c17 () in
  let cps = Stuck_at.checkpoints c in
  (* c17 checkpoints: 5 PIs + 6 fanout branches = 11 lines, 22 faults *)
  Alcotest.(check int) "checkpoint faults" 22 (Array.length cps)

let test_to_string () =
  let c = Benchmarks.c17 () in
  let f = { Stuck_at.site = Stuck_at.Stem (Circuit.find c "n10"); polarity = Stuck_at.Sa0 } in
  Alcotest.(check string) "stem" "n10 SA0" (Stuck_at.to_string c f)

(* --- Fault simulation -------------------------------------------------------- *)

let test_ppsfp_matches_oracle () =
  List.iter
    (fun name ->
      let c = Option.get (Benchmarks.by_name name) in
      let faults = Stuck_at.universe c in
      let vectors = random_vectors c 48 in
      let r = Fault_sim.run ~drop_detected:false c ~faults ~vectors in
      Array.iteri
        (fun i first ->
          (* oracle: scan vectors with the dual ternary simulator *)
          let oracle = ref None in
          Array.iteri
            (fun k v ->
              if !oracle = None && Fault_sim.detects_fault c faults.(i) v then
                oracle := Some k)
            vectors;
          if first <> !oracle then
            Alcotest.failf "%s: fault %s first detection mismatch (%s vs %s)" name
              (Stuck_at.to_string c faults.(i))
              (match first with Some k -> string_of_int k | None -> "-")
              (match !oracle with Some k -> string_of_int k | None -> "-"))
        r.first_detection)
    [ "c17"; "mux3"; "par16"; "c432s_small" ]

let test_ppsfp_drop_consistency () =
  (* dropping must not change first detections *)
  let c = Option.get (Benchmarks.by_name "add8") in
  let faults = Stuck_at.collapse c (Stuck_at.universe c) in
  let vectors = random_vectors c 100 in
  let a = Fault_sim.run ~drop_detected:true c ~faults ~vectors in
  let b = Fault_sim.run ~drop_detected:false c ~faults ~vectors in
  Alcotest.(check bool) "same firsts" true (a.first_detection = b.first_detection)

let test_ppsfp_partial_block () =
  (* vector counts not divisible by 64 are handled exactly *)
  let c = Benchmarks.c17 () in
  let faults = Stuck_at.universe c in
  let vectors = random_vectors c 70 in
  let full = Fault_sim.run ~drop_detected:false c ~faults ~vectors in
  let head = Fault_sim.run ~drop_detected:false c ~faults ~vectors:(Array.sub vectors 0 65) in
  Array.iteri
    (fun i d ->
      match (d, full.first_detection.(i)) with
      | Some a, Some b when a < 65 -> Alcotest.(check int) "prefix stable" b a
      | _ -> ())
    head.first_detection

let test_detection_callback () =
  let c = Benchmarks.c17 () in
  let faults = Stuck_at.universe c in
  let vectors = random_vectors c 32 in
  let events = ref 0 in
  let r =
    Fault_sim.run ~drop_detected:false
      ~on_detect:(fun ~fault_index:_ ~vector_index:_ -> incr events)
      c ~faults ~vectors
  in
  Alcotest.(check bool) "events >= detected faults" true
    (!events >= Fault_sim.detected_count r)

let test_coverage_value () =
  let c = Benchmarks.c17 () in
  let faults = Stuck_at.collapse c (Stuck_at.universe c) in
  let vectors = random_vectors c 128 in
  let r = Fault_sim.run c ~faults ~vectors in
  Alcotest.(check bool) "c17 fully covered by 128 random" true
    (Fault_sim.coverage r = 1.0)

(* --- Parallel fault simulation ----------------------------------------------- *)

type event = { fault : int; vector : int }

let run_collecting runner =
  let events = ref [] in
  let r =
    runner ~on_detect:(fun ~fault_index ~vector_index ->
        events := { fault = fault_index; vector = vector_index } :: !events)
  in
  (r, List.rev !events)

let check_parallel_matches_serial ~what c ~faults ~vectors ~domains ~drop_detected =
  let serial, serial_events =
    run_collecting (fun ~on_detect ->
        Fault_sim.run ~drop_detected ~on_detect c ~faults ~vectors)
  in
  let par, par_events =
    run_collecting (fun ~on_detect ->
        Fault_sim.run_parallel ~drop_detected ~on_detect ~domains c ~faults
          ~vectors)
  in
  if serial.Fault_sim.first_detection <> par.Fault_sim.first_detection then
    Alcotest.failf "%s: first_detection differs (domains=%d drop=%b)" what domains
      drop_detected;
  if serial.Fault_sim.gate_evaluations <> par.Fault_sim.gate_evaluations then
    Alcotest.failf "%s: gate_evaluations %d vs %d (domains=%d drop=%b)" what
      serial.Fault_sim.gate_evaluations par.Fault_sim.gate_evaluations domains
      drop_detected;
  if Fault_sim.coverage serial <> Fault_sim.coverage par then
    Alcotest.failf "%s: coverage differs (domains=%d drop=%b)" what domains
      drop_detected;
  if serial_events <> par_events then
    Alcotest.failf "%s: on_detect event sequence differs (domains=%d drop=%b)" what
      domains drop_detected

let test_parallel_matches_serial () =
  List.iter
    (fun name ->
      let c = Option.get (Benchmarks.by_name name) in
      let faults = Stuck_at.universe c in
      let vectors = random_vectors c 100 in
      List.iter
        (fun domains ->
          List.iter
            (fun drop_detected ->
              check_parallel_matches_serial ~what:name c ~faults ~vectors ~domains
                ~drop_detected)
            [ true; false ])
        [ 1; 2; 3; 4 ])
    [ "c17"; "mux3"; "add8"; "c432s_small" ]

let test_parallel_pool_reuse () =
  (* One pool across several calls and circuits must behave like fresh runs. *)
  Dl_util.Parallel.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun name ->
          let c = Option.get (Benchmarks.by_name name) in
          let faults = Stuck_at.collapse c (Stuck_at.universe c) in
          let vectors = random_vectors c 70 in
          let serial = Fault_sim.run c ~faults ~vectors in
          let par = Fault_sim.run_parallel ~pool c ~faults ~vectors in
          Alcotest.(check bool)
            (name ^ ": pooled run identical") true
            (serial.Fault_sim.first_detection = par.Fault_sim.first_detection
            && serial.Fault_sim.gate_evaluations = par.Fault_sim.gate_evaluations))
        [ "c17"; "par16"; "mux3" ])

let test_parallel_empty_inputs () =
  let c = Benchmarks.c17 () in
  let r =
    Fault_sim.run_parallel ~domains:4 c ~faults:[||] ~vectors:(random_vectors c 10)
  in
  Alcotest.(check int) "no faults" 0 (Array.length r.Fault_sim.first_detection);
  let faults = Stuck_at.universe c in
  let r = Fault_sim.run_parallel ~domains:4 c ~faults ~vectors:[||] in
  Alcotest.(check bool) "no vectors, no detections" true
    (Array.for_all (fun d -> d = None) r.Fault_sim.first_detection)

let test_parallel_degenerate_shapes () =
  let c = Benchmarks.c17 () in
  let universe = Stuck_at.universe c in
  let faults = Array.sub universe 0 3 in
  let vectors = random_vectors c 70 in
  (* A domain request far wider than the fault universe is clamped before
     any domain is spawned — even absurd widths must work. *)
  List.iter
    (fun domains ->
      let serial = Fault_sim.run ~drop_detected:false c ~faults ~vectors in
      let par =
        Fault_sim.run_parallel ~drop_detected:false ~domains c ~faults ~vectors
      in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d identical" domains)
        true
        (serial.Fault_sim.first_detection = par.Fault_sim.first_detection
        && serial.Fault_sim.gate_evaluations = par.Fault_sim.gate_evaluations))
    [ 4; 64; 500 ];
  (* A caller-supplied pool wider than the universe: surplus workers idle. *)
  Dl_util.Parallel.with_pool ~domains:6 (fun pool ->
      let serial = Fault_sim.run c ~faults ~vectors in
      let par = Fault_sim.run_parallel ~pool c ~faults ~vectors in
      Alcotest.(check bool) "wide pool identical" true
        (serial.Fault_sim.first_detection = par.Fault_sim.first_detection);
      let r = Fault_sim.run_parallel ~pool c ~faults:[||] ~vectors in
      Alcotest.(check int) "empty universe" 0
        (Array.length r.Fault_sim.first_detection);
      Alcotest.(check int) "empty universe costs nothing" 0
        r.Fault_sim.gate_evaluations;
      Alcotest.(check int) "empty universe vectors_applied" 70
        r.Fault_sim.vectors_applied);
  (* Single-pattern and 1..63-vector tail blocks, full universe. *)
  List.iter
    (fun n ->
      let vectors = random_vectors c n in
      List.iter
        (fun drop_detected ->
          check_parallel_matches_serial
            ~what:(Printf.sprintf "%d-vector block" n)
            c ~faults:universe ~vectors ~domains:3 ~drop_detected)
        [ true; false ])
    [ 1; 63; 65 ]

let test_parallel_sharding_deterministic () =
  (* Sharding is contiguous by fault index: repeated runs are identical in
     every observable, including the replayed event order. *)
  let c = Option.get (Benchmarks.by_name "add8") in
  let faults = Stuck_at.universe c in
  let vectors = random_vectors c 90 in
  let go () =
    run_collecting (fun ~on_detect ->
        Fault_sim.run_parallel ~drop_detected:false ~on_detect ~domains:3 c
          ~faults ~vectors)
  in
  let r1, ev1 = go () in
  let r2, ev2 = go () in
  Alcotest.(check bool) "detections reproducible" true
    (r1.Fault_sim.first_detection = r2.Fault_sim.first_detection);
  Alcotest.(check bool) "event stream reproducible" true (ev1 = ev2);
  Alcotest.(check bool) "events in serial order" true
    (let serial, serial_ev =
       run_collecting (fun ~on_detect ->
           Fault_sim.run ~drop_detected:false ~on_detect c ~faults ~vectors)
     in
     serial.Fault_sim.first_detection = r1.Fault_sim.first_detection
     && serial_ev = ev1)

let prop_parallel_equals_serial =
  (* Random circuits, fault subsets, vector counts, domain counts and both
     dropping modes: the parallel engine must be indistinguishable from the
     serial one in every observable field. *)
  QCheck.Test.make ~name:"run_parallel = run on random circuits" ~count:30
    QCheck.(
      quad (int_range 0 1_000_000) (int_range 1 130) (int_range 1 5) bool)
    (fun (seed, n_vectors, domains, drop_detected) ->
      let c =
        Dl_netlist.Generator.random ~seed ~inputs:(4 + (seed mod 5)) ~outputs:3
          ~profile:
            [ (Dl_netlist.Gate.Nand, 12); (Dl_netlist.Gate.Nor, 6);
              (Dl_netlist.Gate.Xor, 4); (Dl_netlist.Gate.Not, 4) ]
          ()
      in
      let universe = Stuck_at.universe c in
      (* a deterministic subset keeps shard sizes irregular *)
      let faults =
        Array.of_list
          (List.filteri (fun i _ -> (i + seed) mod 4 <> 1) (Array.to_list universe))
      in
      let vectors = random_vectors c n_vectors in
      check_parallel_matches_serial ~what:"random" c ~faults ~vectors ~domains
        ~drop_detected;
      true)

(* --- Default kernel (Fault_sim.run) vs reference ------------------------------- *)

let check_kernel_matches_reference ~what c ~faults ~vectors ~drop_detected =
  let new_r, new_events =
    run_collecting (fun ~on_detect ->
        Fault_sim.run ~drop_detected ~on_detect c ~faults ~vectors)
  in
  let ref_r, ref_events =
    run_collecting (fun ~on_detect ->
        Fault_sim.Reference.run ~drop_detected ~on_detect c ~faults ~vectors)
  in
  if new_r.Fault_sim.first_detection <> ref_r.Fault_sim.first_detection then
    Alcotest.failf "%s: first_detection differs from reference (drop=%b)" what
      drop_detected;
  if new_events <> ref_events then
    Alcotest.failf "%s: on_detect event sequence differs from reference (drop=%b)"
      what drop_detected;
  (* the default entry point is the wide kernel: same work, same counters *)
  let wide =
    Fault_sim.run_with ~engine:Fault_sim.Wide ~drop_detected c ~faults ~vectors
  in
  if new_r.Fault_sim.gate_evaluations <> wide.Fault_sim.gate_evaluations then
    Alcotest.failf "%s: gate_evaluations %d vs wide engine %d (drop=%b)" what
      new_r.Fault_sim.gate_evaluations wide.Fault_sim.gate_evaluations
      drop_detected;
  if new_r.Fault_sim.stats <> wide.Fault_sim.stats then
    Alcotest.failf "%s: stats differ from the wide engine (drop=%b)" what
      drop_detected

let test_kernel_matches_reference () =
  List.iter
    (fun name ->
      let c = Option.get (Benchmarks.by_name name) in
      let faults = Stuck_at.universe c in
      let vectors = random_vectors c 100 in
      List.iter
        (fun drop_detected ->
          check_kernel_matches_reference ~what:name c ~faults ~vectors
            ~drop_detected)
        [ true; false ])
    [ "c17"; "mux3"; "add8"; "c432s_small" ]

let test_kernel_matches_reference_tail_blocks () =
  (* valid_mask handling: every tail length 1..63 plus exact multiples *)
  let c = Benchmarks.c17 () in
  let faults = Stuck_at.universe c in
  let all = random_vectors c 130 in
  List.iter
    (fun n ->
      let vectors = Array.sub all 0 n in
      check_kernel_matches_reference ~what:(Printf.sprintf "c17/%d vectors" n) c
        ~faults ~vectors ~drop_detected:false)
    [ 1; 2; 31; 63; 64; 65; 127; 128; 129 ]

let prop_kernel_equals_reference =
  (* Random circuits, irregular fault subsets, random vector counts and both
     dropping modes: the default kernel must be indistinguishable from the
     reference engine in detections and event streams. *)
  QCheck.Test.make ~name:"kernel engine = reference on random circuits" ~count:30
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 130) bool)
    (fun (seed, n_vectors, drop_detected) ->
      let c =
        Dl_netlist.Generator.random ~seed ~inputs:(4 + (seed mod 5)) ~outputs:3
          ~profile:
            [ (Dl_netlist.Gate.Nand, 12); (Dl_netlist.Gate.Nor, 6);
              (Dl_netlist.Gate.Xor, 4); (Dl_netlist.Gate.Not, 4) ]
          ()
      in
      let universe = Stuck_at.universe c in
      let faults =
        Array.of_list
          (List.filteri (fun i _ -> (i + seed) mod 4 <> 1) (Array.to_list universe))
      in
      let vectors = random_vectors c n_vectors in
      check_kernel_matches_reference ~what:"random" c ~faults ~vectors
        ~drop_detected;
      true)

(* --- Engines vs reference ------------------------------------------------------ *)

let nonref_engines =
  List.filter (fun e -> e <> Fault_sim.Reference) Fault_sim.engines

let check_engine_matches_reference ~what ~engine c ~faults ~vectors
    ~drop_detected =
  let new_r, new_events =
    run_collecting (fun ~on_detect ->
        Fault_sim.run_with ~engine ~drop_detected ~on_detect c ~faults ~vectors)
  in
  let ref_r, ref_events =
    run_collecting (fun ~on_detect ->
        Fault_sim.Reference.run ~drop_detected ~on_detect c ~faults ~vectors)
  in
  let ename = Fault_sim.engine_to_string engine in
  if new_r.Fault_sim.first_detection <> ref_r.Fault_sim.first_detection then
    Alcotest.failf "%s[%s]: first_detection differs from reference (drop=%b)"
      what ename drop_detected;
  if new_events <> ref_events then
    Alcotest.failf "%s[%s]: on_detect event sequence differs (drop=%b)" what
      ename drop_detected

let test_engines_match_reference () =
  List.iter
    (fun name ->
      let c = Option.get (Benchmarks.by_name name) in
      let faults = Stuck_at.universe c in
      let vectors = random_vectors c 100 in
      List.iter
        (fun engine ->
          List.iter
            (fun drop_detected ->
              check_engine_matches_reference ~what:name ~engine c ~faults
                ~vectors ~drop_detected)
            [ true; false ])
        nonref_engines)
    [ "c17"; "mux3"; "add8"; "c432s_small" ]

let test_engines_tail_blocks () =
  (* per-sub-word valid masks: every interesting length around the 64- and
     256-pattern block boundaries, all engines, both drop modes *)
  let c = Benchmarks.c17 () in
  let faults = Stuck_at.universe c in
  let all = random_vectors c 257 in
  List.iter
    (fun n ->
      let vectors = Array.sub all 0 n in
      List.iter
        (fun engine ->
          List.iter
            (fun drop_detected ->
              check_engine_matches_reference
                ~what:(Printf.sprintf "c17/%d vectors" n)
                ~engine c ~faults ~vectors ~drop_detected)
            [ true; false ])
        nonref_engines)
    [ 1; 2; 31; 63; 64; 65; 127; 128; 129; 192; 255; 256; 257 ]

let test_engines_on_families () =
  (* every structural class, notably fanout-free-heavy (deep FFR chains) and
     reconvergent (stems everywhere) *)
  List.iteri
    (fun i (fam : Generator.Family.t) ->
      let c = Generator.Family.build fam ~seed:(400 + i) ~gates:40 in
      let faults = Stuck_at.universe c in
      let vectors = random_vectors c 96 in
      List.iter
        (fun engine ->
          check_engine_matches_reference ~what:fam.Generator.Family.name ~engine
            c ~faults ~vectors ~drop_detected:true)
        nonref_engines)
    Generator.Family.all

let test_parallel_with_matches_serial () =
  let c = Option.get (Benchmarks.by_name "add8") in
  let faults = Stuck_at.universe c in
  let vectors = random_vectors c 300 in
  List.iter
    (fun engine ->
      let serial, serial_events =
        run_collecting (fun ~on_detect ->
            Fault_sim.run_with ~engine ~drop_detected:false ~on_detect c ~faults
              ~vectors)
      in
      List.iter
        (fun domains ->
          List.iter
            (fun drop_detected ->
              let par, par_events =
                run_collecting (fun ~on_detect ->
                    Fault_sim.run_parallel_with ~engine ~drop_detected
                      ~on_detect ~domains c ~faults ~vectors)
              in
              let serial_r =
                if drop_detected then
                  Fault_sim.run_with ~engine ~drop_detected c ~faults ~vectors
                else serial
              in
              let ename = Fault_sim.engine_to_string engine in
              if
                par.Fault_sim.first_detection
                <> serial_r.Fault_sim.first_detection
              then
                Alcotest.failf "%s: parallel first_detection differs (d=%d)"
                  ename domains;
              (* stats totals are sharding-invariant by design *)
              if par.Fault_sim.stats <> serial_r.Fault_sim.stats then
                Alcotest.failf "%s: parallel stats differ (d=%d drop=%b)" ename
                  domains drop_detected;
              if (not drop_detected) && par_events <> serial_events then
                Alcotest.failf "%s: parallel event stream differs (d=%d)" ename
                  domains)
            [ true; false ])
        [ 1; 2; 3 ])
    nonref_engines

let prop_engines_equal_reference =
  QCheck.Test.make ~name:"every engine = reference on random circuits" ~count:25
    QCheck.(
      quad (int_range 0 1_000_000) (int_range 1 300)
        (int_range 0 (List.length Fault_sim.engines - 1))
        bool)
    (fun (seed, n_vectors, engine_idx, drop_detected) ->
      let c =
        Dl_netlist.Generator.random ~seed ~inputs:(4 + (seed mod 5)) ~outputs:3
          ~profile:
            [ (Dl_netlist.Gate.Nand, 12); (Dl_netlist.Gate.Nor, 6);
              (Dl_netlist.Gate.Xor, 4); (Dl_netlist.Gate.Not, 4) ]
          ()
      in
      let universe = Stuck_at.universe c in
      let faults =
        Array.of_list
          (List.filteri (fun i _ -> (i + seed) mod 4 <> 1) (Array.to_list universe))
      in
      let vectors = random_vectors c n_vectors in
      let engine = List.nth Fault_sim.engines engine_idx in
      check_engine_matches_reference ~what:"random" ~engine c ~faults ~vectors
        ~drop_detected;
      true)

let test_engine_stats () =
  let c = Benchmarks.c432s () in
  let faults = Stuck_at.collapse c (Stuck_at.universe c) in
  let vectors = random_vectors c 256 in
  let wide = Fault_sim.run_with ~engine:Fault_sim.Wide c ~faults ~vectors in
  let s = wide.Fault_sim.stats in
  Alcotest.(check int) "stats.gate_evaluations = result field"
    wide.Fault_sim.gate_evaluations s.Fault_sim.Stats.gate_evaluations;
  (* the wide engine never simulates individual faults *)
  Alcotest.(check int) "no per-fault propagation" 0
    s.Fault_sim.Stats.faults_simulated;
  Alcotest.(check bool) "stems toggled" true
    (s.Fault_sim.Stats.stem_simulations > 0);
  Alcotest.(check bool) "every fault decided by tracing" true
    (s.Fault_sim.Stats.faults_inferred >= Fault_sim.detected_count wide);
  (* with dropping on, dropped = detected *)
  Alcotest.(check int) "dropped = detected" (Fault_sim.detected_count wide)
    s.Fault_sim.Stats.faults_dropped;
  let keep =
    Fault_sim.run_with ~engine:Fault_sim.Wide ~drop_detected:false c ~faults
      ~vectors
  in
  Alcotest.(check int) "no dropping, none dropped" 0
    keep.Fault_sim.stats.Fault_sim.Stats.faults_dropped;
  (* Stats.pp renders every counter *)
  let s = Format.asprintf "%a" Fault_sim.Stats.pp s in
  Alcotest.(check bool) "pp non-empty" true (String.length s > 0)

let test_out_of_range_faults_rejected () =
  (* Every entry point, on every engine, rejects a fault site outside the
     circuit with one Invalid_argument line naming the fault — never a
     crash, and never a detection result.  The bad fault comes last, after
     a valid universe, as a fault list read from a .repro file would. *)
  let c = Benchmarks.c17 () in
  let n = Circuit.node_count c in
  let last = n - 1 in
  let arity = Array.length c.nodes.(last).fanin in
  let universe = Stuck_at.universe c in
  let index = Array.length universe in
  let vectors = random_vectors c 8 in
  List.iter
    (fun site ->
      let faults =
        Array.append universe [| { Stuck_at.site; polarity = Stuck_at.Sa1 } |]
      in
      let expect what f =
        match f () with
        | () -> Alcotest.failf "%s accepted an out-of-range fault" what
        | exception Invalid_argument msg ->
            if String.contains msg '\n' then
              Alcotest.failf "%s: multi-line message %S" what msg;
            let names = Printf.sprintf "fault %d (" index in
            let len = String.length names in
            let rec mentions i =
              i + len <= String.length msg
              && (String.sub msg i len = names || mentions (i + 1))
            in
            if not (mentions 0) then
              Alcotest.failf "%s: message %S does not name the fault" what msg
      in
      List.iter
        (fun engine ->
          let e = Fault_sim.engine_to_string engine in
          expect (e ^ " run_with") (fun () ->
              ignore (Fault_sim.run_with ~engine c ~faults ~vectors));
          expect (e ^ " run_parallel_with") (fun () ->
              ignore
                (Fault_sim.run_parallel_with ~engine ~domains:2 c ~faults
                   ~vectors));
          expect (e ^ " run_ndet") (fun () ->
              ignore
                (Fault_sim.run_ndet ~engine ~drop_after:2 c ~faults ~vectors)))
        Fault_sim.engines;
      expect "run" (fun () -> ignore (Fault_sim.run c ~faults ~vectors));
      expect "run_parallel" (fun () ->
          ignore (Fault_sim.run_parallel ~domains:2 c ~faults ~vectors)))
    [
      Stuck_at.Stem n;
      Stuck_at.Stem 1000;
      Stuck_at.Stem (-1);
      Stuck_at.Branch { gate = last; pin = arity };
      Stuck_at.Branch { gate = last; pin = 9 };
      Stuck_at.Branch { gate = last; pin = -1 };
      Stuck_at.Branch { gate = n; pin = 0 };
    ]

let test_engine_names () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "round-trip" true
        (Fault_sim.engine_of_string (Fault_sim.engine_to_string e) = Some e))
    Fault_sim.engines;
  Alcotest.(check bool) "unknown rejected" true
    (Fault_sim.engine_of_string "warp" = None)

let test_wide_hot_path_allocation_free () =
  (* The wide PPSFP hot loop must be allocation-free in steady state:
     <= 0.05 minor words per (64-pattern-unit) gate evaluation.  Measured as
     the delta between a short and a long run so the per-run setup
     (kernel lowering, scratch buffers, result arrays — identical in both)
     cancels out and only the per-block/per-fault path is gated. *)
  let c = Benchmarks.c432s () in
  let faults = Stuck_at.collapse c (Stuck_at.universe c) in
  let all = random_vectors c 2048 in
  let short = Array.sub all 0 512 in
  let measure vectors =
    ignore
      (Fault_sim.run_with ~engine:Fault_sim.Wide ~drop_detected:false c ~faults
         ~vectors);
    let m0 = Gc.minor_words () in
    let r =
      Fault_sim.run_with ~engine:Fault_sim.Wide ~drop_detected:false c ~faults
        ~vectors
    in
    let m1 = Gc.minor_words () in
    (m1 -. m0, float_of_int r.Fault_sim.gate_evaluations)
  in
  let w_short, e_short = measure short in
  let w_long, e_long = measure all in
  let per_eval = (w_long -. w_short) /. (e_long -. e_short) in
  if per_eval > 0.05 then
    Alcotest.failf "wide path allocates %.4f minor words per gate eval" per_eval

let test_kernel_hot_path_allocation_free () =
  (* The PPSFP hot path must not allocate: after a warm-up run (lowering,
     scratch and result-array allocation are unavoidable), a steady-state
     run must stay under 0.5 minor words per gate evaluation — a single
     boxed int64 on the per-gate path would already cost 3. *)
  let c = Benchmarks.c432s () in
  let faults = Stuck_at.collapse c (Stuck_at.universe c) in
  let vectors = random_vectors c 512 in
  ignore (Fault_sim.run ~drop_detected:false c ~faults ~vectors);
  let m0 = Gc.minor_words () in
  let r = Fault_sim.run ~drop_detected:false c ~faults ~vectors in
  let m1 = Gc.minor_words () in
  let per_eval = (m1 -. m0) /. float_of_int r.Fault_sim.gate_evaluations in
  if per_eval > 0.5 then
    Alcotest.failf "hot path allocates %.4f minor words per gate eval" per_eval

let test_lowest_set_bit () =
  Alcotest.(check (option int)) "zero" None (Fault_sim.lowest_set_bit 0L);
  Alcotest.(check (option int)) "one" (Some 0) (Fault_sim.lowest_set_bit 1L);
  Alcotest.(check (option int)) "min_int" (Some 63)
    (Fault_sim.lowest_set_bit Int64.min_int);
  Alcotest.(check (option int)) "all ones" (Some 0)
    (Fault_sim.lowest_set_bit (-1L));
  for bit = 0 to 63 do
    Alcotest.(check (option int)) (Printf.sprintf "bit %d" bit) (Some bit)
      (Fault_sim.lowest_set_bit (Int64.shift_left 1L bit));
    (* higher garbage bits must not disturb the scan *)
    if bit < 62 then
      Alcotest.(check (option int)) (Printf.sprintf "bit %d+" bit) (Some bit)
        (Fault_sim.lowest_set_bit
           (Int64.logor (Int64.shift_left 1L bit) (Int64.shift_left 3L (bit + 1))))
  done

(* --- Coverage curves ------------------------------------------------------------ *)

let test_coverage_monotone () =
  let firsts = [| Some 3; None; Some 10; Some 3; Some 0 |] in
  let cov = Coverage.make firsts in
  let prev = ref (-1.0) in
  for k = 0 to 12 do
    let v = Coverage.at cov k in
    Alcotest.(check bool) "monotone" true (v >= !prev);
    prev := v
  done;
  Alcotest.(check (float 1e-12)) "final" 0.8 (Coverage.final cov)

let test_coverage_weighted () =
  let firsts = [| Some 0; None |] in
  let cov = Coverage.make ~weights:[| 3.0; 1.0 |] firsts in
  Alcotest.(check (float 1e-12)) "weighted" 0.75 (Coverage.at cov 1)

let test_coverage_boundaries () =
  let cov = Coverage.make [| Some 5 |] in
  Alcotest.(check (float 1e-12)) "before" 0.0 (Coverage.at cov 5);
  Alcotest.(check (float 1e-12)) "after" 1.0 (Coverage.at cov 6)

let test_log_spaced () =
  let ks = Coverage.log_spaced ~max:1000 ~points:20 in
  Alcotest.(check int) "starts at 1" 1 ks.(0);
  Alcotest.(check int) "ends at max" 1000 ks.(Array.length ks - 1);
  for i = 0 to Array.length ks - 2 do
    Alcotest.(check bool) "strictly increasing" true (ks.(i) < ks.(i + 1))
  done

(* The old O(n)-per-query implementation of Coverage.at, kept as a
   reference oracle for the binary-search version. *)
let coverage_at_by_scan firsts ?weights k =
  let n = Array.length firsts in
  let weights = match weights with None -> Array.make n 1.0 | Some w -> w in
  let events = ref [] in
  Array.iteri
    (fun i d ->
      match d with Some v -> events := (v, weights.(i)) :: !events | None -> ())
    firsts;
  let events = Array.of_list !events in
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) events;
  let total = Dl_util.Stats.total weights in
  if total = 0.0 then 1.0
  else begin
    let acc = ref 0.0 in
    (try
       Array.iter
         (fun (idx, w) -> if idx < k then acc := !acc +. w else raise Exit)
         events
     with Exit -> ());
    !acc /. total
  end

let test_coverage_at_matches_scan () =
  let rng = Dl_util.Rng.create 77 in
  for _ = 1 to 50 do
    let n = 1 + Dl_util.Rng.int rng 40 in
    let firsts =
      Array.init n (fun _ ->
          if Dl_util.Rng.bool rng then Some (Dl_util.Rng.int rng 60) else None)
    in
    let weights =
      if Dl_util.Rng.bool rng then None
      else Some (Array.init n (fun _ -> Dl_util.Rng.float rng 3.0))
    in
    let cov = Coverage.make ?weights firsts in
    for k = 0 to 64 do
      let got = Coverage.at cov k in
      let want = coverage_at_by_scan firsts ?weights k in
      if got <> want then
        Alcotest.failf "at %d: binary search %.17g vs scan %.17g" k got want
    done
  done

let prop_coverage_at_matches_scan =
  QCheck.Test.make ~name:"Coverage.at = linear-scan oracle" ~count:300
    QCheck.(pair (list (option (int_range 0 100))) (int_range 0 120))
    (fun (firsts, k) ->
      let firsts = Array.of_list firsts in
      Coverage.at (Coverage.make firsts) k = coverage_at_by_scan firsts k)

let test_detections_in_order () =
  let cov = Coverage.make [| Some 4; Some 1; Some 9 |] in
  let evs = Coverage.detections_in_order cov in
  Alcotest.(check int) "3 events" 3 (Array.length evs);
  Alcotest.(check bool) "sorted by vector" true
    (let ks = Array.map fst evs in
     ks = [| 1; 4; 9 |])

(* --- Detectability ---------------------------------------------------------- *)

let test_detectability_estimate () =
  let c = Benchmarks.c17 () in
  let faults = Stuck_at.collapse c (Stuck_at.universe c) in
  let d = Detectability.estimate ~seed:5 ~samples:256 c ~faults in
  let ps = Detectability.probabilities d in
  Alcotest.(check int) "one probability per fault" (Array.length faults)
    (Array.length ps);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "p in [0,1]" true (p >= 0.0 && p <= 1.0))
    ps;
  Alcotest.(check bool) "c17 faults are random-testable" true
    (Detectability.mean_detectability d > 0.0);
  (* The induced curve starts at zero, grows monotonically, and mirrors
     the escape probability exactly. *)
  Alcotest.(check (float 0.0)) "T(0) = 0" 0.0
    (Detectability.expected_coverage d 0);
  let prev = ref 0.0 in
  List.iter
    (fun k ->
      let v = Detectability.expected_coverage d k in
      Alcotest.(check bool)
        (Printf.sprintf "monotone at k=%d" k)
        true
        (v >= !prev -. 1e-12 && v <= 1.0);
      prev := v)
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  Alcotest.(check (float 1e-12)) "escape = 1 - coverage"
    (1.0 -. Detectability.expected_coverage d 16)
    (Detectability.escape_probability d 16)

let test_detectability_hardest_and_length () =
  let d = Detectability.of_probabilities [| 0.9; 0.5; 0.01; 0.2 |] in
  let hardest = Detectability.hardest d 2 in
  Alcotest.(check (list int)) "two hardest faults" [ 2; 3 ]
    (List.sort compare (List.map fst hardest));
  (match Detectability.test_length_for d ~target:0.9 with
  | Some k ->
      Alcotest.(check bool) "reaches target" true
        (Detectability.expected_coverage d k >= 0.9);
      Alcotest.(check bool) "minimal" true
        (k = 0 || Detectability.expected_coverage d (k - 1) < 0.9)
  | None -> Alcotest.fail "0.9 must be reachable with all p > 0");
  let d0 = Detectability.of_probabilities [| 1.0; 0.0 |] in
  Alcotest.(check bool) "target above the testable fraction" true
    (Detectability.test_length_for d0 ~target:0.9 = None)

(* --- qcheck ----------------------------------------------------------------------- *)

let prop_coverage_in_unit_range =
  QCheck.Test.make ~name:"coverage stays in [0,1]" ~count:200
    QCheck.(pair (list (option (int_range 0 100))) small_nat)
    (fun (firsts, k) ->
      let cov = Coverage.make (Array.of_list firsts) in
      let v = Coverage.at cov k in
      v >= 0.0 && v <= 1.0)

(* --- Coverage.make against the retained Coverage.Reference ------------------------ *)

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* Every query of the fast curve against the reference, bit for bit. *)
let coverage_agrees ?weights firsts =
  let fast = Coverage.make ?weights firsts
  and slow = Coverage.Reference.make ?weights firsts in
  let max_k = Array.fold_left (fun m -> function Some k -> max m k | None -> m) 0 firsts in
  let ats_agree =
    List.for_all
      (fun k -> same_float (Coverage.at fast k) (Coverage.Reference.at slow k))
      (List.init (min (max_k + 3) 400) Fun.id
      @ List.concat_map (function Some k -> [ k; k + 1 ] | None -> []) (Array.to_list firsts)
      @ [ max_int ])
  in
  let fd = Coverage.detections_in_order fast
  and sd = Coverage.Reference.detections_in_order slow in
  ats_agree
  && Array.length fd = Array.length sd
  && Array.for_all2 (fun (k, v) (k', v') -> k = k' && same_float v v') fd sd
  && same_float (Coverage.final fast) (Coverage.Reference.final slow)
  && same_float (Coverage.total_weight fast) (Coverage.Reference.total_weight slow)
  && Coverage.total_faults fast = Coverage.Reference.total_faults slow

(* Detection records of four shapes (mostly never detected, never
   detected, empty, everything on one vector, and a sparse index range far
   beyond the detection count), with weights spanning magnitudes so the
   order of equal-index sums shows in the rounding. *)
let gen_detections =
  QCheck.Gen.(
    let* shape = int_range 0 4 in
    let* n = if shape = 2 then return 0 else int_range 1 400 in
    let* k_max = int_range 0 (if shape = 4 then 1_000_000 else 60) in
    let* firsts =
      array_repeat n
        (let* p = float_bound_inclusive 1.0 in
         let* k = int_range 0 k_max in
         return
           (match shape with
           | 0 | 4 -> if p < 0.1 then Some k else None
           | 1 -> None
           | 3 -> if p < 0.7 then Some 0 else None
           | _ -> Some k))
    in
    let* weighted = bool in
    let* weights =
      array_repeat n
        (let* e = int_range (-12) 6 in
         let* m = float_bound_inclusive 1.0 in
         return (if e = -12 then 0.0 else m *. (10.0 ** float_of_int e)))
    in
    return (firsts, if weighted then Some weights else None))

let prop_make_equals_reference =
  QCheck.Test.make ~name:"Coverage.make = Coverage.Reference.make" ~count:400
    (QCheck.make gen_detections) (fun (firsts, weights) ->
      coverage_agrees ?weights firsts)

(* The port must leave ties exactly where Stdlib.Array.sort leaves them:
   each element carries its position in its low bits, so any difference
   in the permutation shows. *)
let prop_sort_packed_equals_stdlib =
  QCheck.Test.make ~name:"sort_packed = Array.sort permutation" ~count:300
    QCheck.(pair (int_range 0 3000) (pair (int_range 1 40) int))
    (fun (n, (distinct, seed)) ->
      let rng = Dl_util.Rng.create seed in
      let shift = 12 in
      let a =
        Array.init n (fun i -> (Dl_util.Rng.int rng distinct lsl shift) lor i)
      in
      let want = Array.copy a in
      Array.sort (fun x y -> compare (x lsr shift) (y lsr shift)) want;
      Coverage.sort_packed ~shift a;
      a = want)

let test_coverage_rejects_bad_input () =
  let invalid name f =
    match f () with
    | (_ : Coverage.t) -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  invalid "NaN weight" (fun () ->
      Coverage.make ~weights:[| 1.0; Float.nan |] [| Some 0; Some 1 |]);
  invalid "negative weight" (fun () ->
      Coverage.make ~weights:[| -1.0 |] [| Some 0 |]);
  invalid "negative index" (fun () -> Coverage.make [| Some 2; Some (-1) |]);
  invalid "negative index, weighted" (fun () ->
      Coverage.make ~weights:[| 1.0 |] [| Some (-1) |]);
  (* Four faults take two bits of the packed int; the index gets the rest. *)
  invalid "index too wide to pack" (fun () ->
      Coverage.make ~weights:(Array.make 4 1.0) [| Some (max_int lsr 1); None; None; None |]);
  let widest = max_int lsr 2 in
  let cov = Coverage.make ~weights:(Array.make 4 1.0) [| Some widest; None; None; None |] in
  Alcotest.(check (float 0.0)) "widest index packs" 0.25 (Coverage.at cov max_int)

let () =
  Alcotest.run "dl_fault"
    [
      ( "stuck-at",
        [
          Alcotest.test_case "universe size" `Quick test_universe_size_c17;
          Alcotest.test_case "universe sorted" `Quick test_universe_sorted_unique;
          Alcotest.test_case "enumeration sorted, random circuits" `Quick
            test_enumeration_sorted_random;
          Alcotest.test_case "collapse c17" `Quick test_collapse_c17;
          Alcotest.test_case "class detection equivalence" `Quick
            test_collapse_detection_equivalent;
          Alcotest.test_case "checkpoints" `Quick test_checkpoints_subset;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ( "fault-sim",
        [
          Alcotest.test_case "ppsfp = oracle" `Slow test_ppsfp_matches_oracle;
          Alcotest.test_case "dropping consistent" `Quick test_ppsfp_drop_consistency;
          Alcotest.test_case "partial block" `Quick test_ppsfp_partial_block;
          Alcotest.test_case "detect callback" `Quick test_detection_callback;
          Alcotest.test_case "coverage" `Quick test_coverage_value;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "parallel = serial" `Slow test_parallel_matches_serial;
          Alcotest.test_case "pool reuse" `Quick test_parallel_pool_reuse;
          Alcotest.test_case "empty inputs" `Quick test_parallel_empty_inputs;
          Alcotest.test_case "degenerate shapes" `Quick
            test_parallel_degenerate_shapes;
          Alcotest.test_case "deterministic sharding" `Quick
            test_parallel_sharding_deterministic;
        ] );
      ( "detectability",
        [
          Alcotest.test_case "estimate bounds and curve" `Quick
            test_detectability_estimate;
          Alcotest.test_case "hardest and test length" `Quick
            test_detectability_hardest_and_length;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "kernel = reference" `Slow test_kernel_matches_reference;
          Alcotest.test_case "tail blocks" `Quick
            test_kernel_matches_reference_tail_blocks;
          Alcotest.test_case "hot path allocation-free" `Quick
            test_kernel_hot_path_allocation_free;
          Alcotest.test_case "lowest_set_bit" `Quick test_lowest_set_bit;
        ] );
      ( "engines",
        [
          Alcotest.test_case "engines = reference" `Slow
            test_engines_match_reference;
          Alcotest.test_case "tail blocks (64/256 boundaries)" `Quick
            test_engines_tail_blocks;
          Alcotest.test_case "structural families" `Quick
            test_engines_on_families;
          Alcotest.test_case "parallel_with = run_with" `Slow
            test_parallel_with_matches_serial;
          Alcotest.test_case "stats counters" `Quick test_engine_stats;
          Alcotest.test_case "engine names" `Quick test_engine_names;
          Alcotest.test_case "out-of-range faults rejected" `Quick
            test_out_of_range_faults_rejected;
          Alcotest.test_case "wide path allocation-free" `Quick
            test_wide_hot_path_allocation_free;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "monotone" `Quick test_coverage_monotone;
          Alcotest.test_case "weighted" `Quick test_coverage_weighted;
          Alcotest.test_case "boundaries" `Quick test_coverage_boundaries;
          Alcotest.test_case "log spacing" `Quick test_log_spaced;
          Alcotest.test_case "at = old scan" `Quick test_coverage_at_matches_scan;
          Alcotest.test_case "detection staircase" `Quick test_detections_in_order;
          Alcotest.test_case "bad input rejected" `Quick test_coverage_rejects_bad_input;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_coverage_in_unit_range;
            prop_coverage_at_matches_scan;
            prop_make_equals_reference;
            prop_sort_packed_equals_stdlib;
            prop_parallel_equals_serial;
            prop_kernel_equals_reference;
            prop_engines_equal_reference;
          ] );
    ]
