(* Artifact store: binary framing, codec envelopes, content-addressed
   store, incremental stage graph, and the cached experiment pipeline.

   The properties that matter operationally: every codec is an exact
   round-trip (floats bit-for-bit, circuits structurally equal), any
   single-byte corruption of an envelope is detected (cache miss, never a
   misread or a crash), a stale format version is a miss, and stage keys
   move exactly when the inputs they fingerprint move. *)

open Dl_netlist
module B = Dl_util.Binary
module Codec = Dl_store.Codec
module Artifact = Dl_store.Artifact
module Store = Dl_store.Store
module Stage = Dl_store.Stage

let small_profile =
  [ (Gate.Nand, 8); (Gate.Nor, 4); (Gate.And, 3); (Gate.Or, 3);
    (Gate.Not, 4); (Gate.Xor, 3) ]

let random_circuit seed =
  Generator.random ~seed ~inputs:6 ~outputs:3 ~profile:small_profile ()

(* A scratch store root per test, cleaned up eagerly. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlstore_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- binary framing ------------------------------------------------------- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint round-trips" ~count:500
    QCheck.(int_bound max_int)
    (fun n ->
      let buf = Buffer.create 16 in
      B.write_varint buf n;
      B.read_varint (B.cursor (Buffer.to_bytes buf)) = n)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"zigzag int round-trips" ~count:500 QCheck.int
    (fun n ->
      let buf = Buffer.create 16 in
      B.write_int buf n;
      B.read_int (B.cursor (Buffer.to_bytes buf)) = n)

let prop_float_roundtrip =
  QCheck.Test.make ~name:"float round-trips bit-for-bit" ~count:500 QCheck.float
    (fun x ->
      let buf = Buffer.create 16 in
      B.write_float buf x;
      let y = B.read_float (B.cursor (Buffer.to_bytes buf)) in
      Int64.bits_of_float x = Int64.bits_of_float y)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string round-trips" ~count:300 QCheck.string
    (fun s ->
      let buf = Buffer.create 16 in
      B.write_string buf s;
      B.read_string (B.cursor (Buffer.to_bytes buf)) = s)

let prop_packed_bools_roundtrip =
  QCheck.Test.make ~name:"packed bool arrays round-trip" ~count:300
    QCheck.(array bool)
    (fun a ->
      let buf = Buffer.create 16 in
      B.write_bools_packed buf a;
      B.read_bools_packed (B.cursor (Buffer.to_bytes buf)) = a)

let test_float_special_values () =
  List.iter
    (fun x ->
      let buf = Buffer.create 16 in
      B.write_float buf x;
      let y = B.read_float (B.cursor (Buffer.to_bytes buf)) in
      Alcotest.(check int64) "same bits" (Int64.bits_of_float x)
        (Int64.bits_of_float y))
    [ nan; infinity; neg_infinity; -0.0; 0.0; epsilon_float; max_float;
      (* NaN payloads: quiet and signalling, both signs. *)
      Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL;
      Int64.float_of_bits 0xFFF0_0000_0000_0001L;
      Int64.float_of_bits 0x7FF0_0000_0000_0001L;
      Int64.float_of_bits 0xFFFF_FFFF_FFFF_FFFFL ]

let test_crc32_known_vector () =
  (* The standard CRC-32 (IEEE 802.3) check value. *)
  Alcotest.(check int32) "crc32(\"123456789\")" 0xCBF43926l
    (B.crc32 (Bytes.of_string "123456789") ~pos:0 ~len:9)

(* The Int32 implementation the native-int [crc32] replaced. *)
let crc32_int32 ?(crc = 0l) data ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get data i)))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* Lengths 0 to 4,096 from every start offset mod 8, so the 8-byte steps
   meet every alignment and tail length; half the cases are short. *)
let prop_crc32_equals_int32 =
  QCheck.Test.make ~name:"crc32 = Int32 implementation, chained" ~count:500
    QCheck.(
      triple
        (string_of_size Gen.(frequency [ (1, int_bound 40); (1, int_bound 4103) ]))
        small_nat int32)
    (fun (s, split, seed) ->
      let data = Bytes.of_string s in
      List.for_all
        (fun pos ->
          let len = Bytes.length data - pos in
          let la = if len > 0 then split mod (len + 1) else 0 in
          len < 0
          || B.crc32 data ~pos ~len = crc32_int32 data ~pos ~len
             && B.crc32 ~crc:seed data ~pos ~len = crc32_int32 ~crc:seed data ~pos ~len
             && B.crc32 ~crc:(B.crc32 data ~pos ~len:la) data ~pos:(pos + la)
                  ~len:(len - la)
                = B.crc32 data ~pos ~len)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_truncation_is_corrupt () =
  let buf = Buffer.create 16 in
  B.write_string buf "hello";
  let data = Buffer.to_bytes buf in
  for len = 0 to Bytes.length data - 1 do
    let truncated = Bytes.sub data 0 len in
    match B.read_string (B.cursor truncated) with
    | _ -> Alcotest.fail "truncated read succeeded"
    | exception B.Corrupt _ -> ()
  done

(* --- codec envelopes ------------------------------------------------------ *)

let test_envelope_roundtrip () =
  let c = Benchmarks.c17 () in
  let data = Codec.to_bytes Artifact.circuit c in
  (match Codec.inspect data with
  | Ok (kind, version) ->
      Alcotest.(check string) "kind" "circuit" kind;
      Alcotest.(check int) "version" Artifact.circuit.Codec.version version
  | Error e -> Alcotest.fail (Codec.error_to_string e));
  match Codec.of_bytes Artifact.circuit data with
  | Ok c' -> Alcotest.(check bool) "structurally equal" true (c = c')
  | Error e -> Alcotest.fail (Codec.error_to_string e)

let test_every_byte_flip_detected () =
  let c = Benchmarks.c17 () in
  let data = Codec.to_bytes Artifact.circuit c in
  for i = 0 to Bytes.length data - 1 do
    let corrupted = Bytes.copy data in
    Bytes.set corrupted i (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x40));
    match Codec.of_bytes Artifact.circuit corrupted with
    | Ok _ -> Alcotest.failf "byte flip at %d went undetected" i
    | Error _ -> ()
  done

let test_version_bump_is_stale () =
  let c = Benchmarks.c17 () in
  let bumped = { Artifact.circuit with Codec.version = Artifact.circuit.Codec.version + 1 } in
  let data = Codec.to_bytes bumped c in
  match Codec.of_bytes Artifact.circuit data with
  | Error (Codec.Stale_version { expected; found }) ->
      Alcotest.(check int) "expected" Artifact.circuit.Codec.version expected;
      Alcotest.(check int) "found" (expected + 1) found
  | Ok _ -> Alcotest.fail "stale version decoded"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_kind_mismatch () =
  let data =
    Codec.to_bytes Artifact.stuck_faults
      (Dl_fault.Stuck_at.universe (Benchmarks.c17 ()))
  in
  match Codec.of_bytes Artifact.circuit data with
  | Error (Codec.Kind_mismatch { expected = "circuit"; found = "stuck-faults" }) -> ()
  | Ok _ -> Alcotest.fail "wrong kind decoded"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_garbage_is_bad_magic () =
  match Codec.of_bytes Artifact.circuit (Bytes.of_string "not an artifact") with
  | Error Codec.Bad_magic -> ()
  | Ok _ -> Alcotest.fail "garbage decoded"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

(* --- artifact codecs ------------------------------------------------------ *)

let roundtrip codec v =
  match Codec.of_bytes codec (Codec.to_bytes codec v) with
  | Ok v' -> v' = v
  | Error _ -> false

let prop_circuit_roundtrip =
  QCheck.Test.make ~name:"random circuits round-trip structurally equal"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed -> roundtrip Artifact.circuit (random_circuit seed))

let test_builtin_circuits_roundtrip () =
  List.iter
    (fun (name, build) ->
      Alcotest.(check bool) name true (roundtrip Artifact.circuit (build ())))
    Benchmarks.all

let prop_stuck_faults_roundtrip =
  QCheck.Test.make ~name:"stuck-at universes round-trip" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = random_circuit seed in
      roundtrip Artifact.stuck_faults (Dl_fault.Stuck_at.universe c)
      && roundtrip Artifact.stuck_faults
           (Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c)))

(* Pattern sets are stored inside the atpg artifact, bit-packed. *)
let prop_patterns_roundtrip =
  QCheck.Test.make ~name:"pattern sets round-trip" ~count:100
    QCheck.(pair small_nat (int_range 0 24))
    (fun (n, width) ->
      let rng = Dl_util.Rng.create (n + (width * 1000)) in
      let vs =
        Array.init n (fun _ -> Array.init width (fun _ -> Dl_util.Rng.bool rng))
      in
      roundtrip Artifact.atpg
        {
          Dl_atpg.Atpg.vectors = vs;
          stats =
            {
              total_faults = 0;
              random_detected = 0;
              deterministic_detected = 0;
              untestable = 0;
              aborted = 0;
              random_vectors = n;
              deterministic_vectors = 0;
            };
          coverage = 0.0;
          untestable_faults = [||];
          aborted_faults = [||];
        })

let prop_detections_roundtrip =
  QCheck.Test.make ~name:"detection results round-trip (v2, with stats)"
    ~count:100
    QCheck.(
      pair
        (triple (array (option small_nat)) small_nat small_nat)
        (triple small_nat small_nat small_nat))
    (fun ((first_detection, vectors_applied, gate_evaluations), (a, b, c)) ->
      let sim_stats =
        {
          Dl_fault.Fault_sim.Stats.gate_evaluations = a;
          events = b;
          faults_inferred = c;
          faults_simulated = a + b;
          stem_simulations = b + c;
          faults_dropped = a + c;
        }
      in
      roundtrip Artifact.detections
        { Artifact.first_detection; vectors_applied; gate_evaluations;
          sim_stats })

(* Real extraction + swift output of c432s_small: every kind, policy and
   class constructor a pipeline produces. *)
let c432s_small_artifacts =
  lazy
    (let c = Transform.decompose_for_cells (Benchmarks.c432s_small ()) in
     let m = Dl_cell.Mapping.flatten c in
     let e = Dl_extract.Ifa.extract (Dl_layout.Layout.synthesize m) in
     let rng = Dl_util.Rng.create 11 in
     let vectors =
       Array.init 16 (fun _ ->
           Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))
     in
     let r =
       Dl_switch.Swift.run (Dl_switch.Network.build m) ~faults:e.faults ~vectors
     in
     ( { Artifact.faults = e.faults; gross_weight = e.gross_weight;
         summaries = e.summaries },
       r ))

let test_ifa_swift_roundtrip () =
  let ifa, swift = Lazy.force c432s_small_artifacts in
  Alcotest.(check bool) "ifa" true (roundtrip Artifact.ifa ifa);
  Alcotest.(check bool) "swift" true (roundtrip Artifact.swift swift)

(* --- the ifa and swift decoders against the generic readers ---------------- *)

(* The ifa and swift decoders as they were written on the generic
   [B.read_array]/[B.read_option]/[B.read_list] readers: the oracle of the
   codecs' direct loops. *)
module Generic = struct
  module Realistic = Dl_switch.Realistic
  module Geom = Dl_layout.Geom
  module Defect_stats = Dl_extract.Defect_stats

  let layer_of_code = function
    | 0 -> Geom.Diffusion_n
    | 1 -> Geom.Diffusion_p
    | 2 -> Geom.Poly
    | 3 -> Geom.Metal1
    | 4 -> Geom.Metal2
    | 5 -> Geom.Contact
    | 6 -> Geom.Via
    | c -> raise (B.Corrupt (Printf.sprintf "bad layer code %d" c))

  let policy_of_code = function
    | 0 -> Realistic.Floats_low
    | 1 -> Realistic.Floats_high
    | 2 -> Realistic.Floats_unknown
    | c -> raise (B.Corrupt (Printf.sprintf "bad float-policy code %d" c))

  let decode_realistic cur : Realistic.t =
    let kind =
      match B.read_byte cur with
      | 0 ->
          let node_a = B.read_varint cur in
          let node_b = B.read_varint cur in
          Realistic.Bridge { node_a; node_b }
      | 1 -> Realistic.Transistor_stuck_open (B.read_varint cur)
      | 2 -> Realistic.Transistor_stuck_on (B.read_varint cur)
      | 3 ->
          let gate = B.read_varint cur in
          let pin = B.read_varint cur in
          let policy = policy_of_code (B.read_byte cur) in
          Realistic.Input_open { gate; pin; policy }
      | 4 ->
          let node = B.read_varint cur in
          let policy = policy_of_code (B.read_byte cur) in
          Realistic.Stem_open { node; policy }
      | t -> raise (B.Corrupt (Printf.sprintf "bad realistic-fault tag %d" t))
    in
    let weight = B.read_float cur in
    let label = B.read_string cur in
    { kind; weight; label }

  let decode_defect_class cur =
    match B.read_byte cur with
    | 0 -> Defect_stats.Short_on (layer_of_code (B.read_byte cur))
    | 1 -> Defect_stats.Open_on (layer_of_code (B.read_byte cur))
    | 2 -> Defect_stats.Oxide_pinhole
    | 3 -> Defect_stats.Contact_open
    | t -> raise (B.Corrupt (Printf.sprintf "bad defect-class tag %d" t))

  let ifa cur : Artifact.ifa =
    let faults = B.read_array decode_realistic cur in
    let gross_weight = B.read_float cur in
    let summaries =
      B.read_list
        (fun c ->
          let cls = decode_defect_class c in
          let count = B.read_varint c in
          let total_weight = B.read_float c in
          { Dl_extract.Ifa.cls; count; total_weight })
        cur
    in
    { faults; gross_weight; summaries }

  let swift cur : Dl_switch.Swift.result =
    let detection =
      B.read_array
        (fun c ->
          let voltage = B.read_option B.read_varint c in
          let iddq = B.read_option B.read_varint c in
          { Dl_switch.Swift.voltage; iddq })
        cur
    in
    let vectors_applied = B.read_varint cur in
    let region_solves = B.read_varint cur in
    { Dl_switch.Swift.detection; vectors_applied; region_solves }
end

let payload (codec : _ Codec.t) v =
  let buf = Buffer.create 4096 in
  codec.encode buf v;
  Buffer.to_bytes buf

(* What decoding [data] gives: the value re-encoded (bit-exact, NaNs
   included) and the cursor's end, or the exception raised. *)
let decode_outcome (codec : _ Codec.t) decode data =
  let cur = B.cursor data in
  match decode cur with
  | v -> Ok (Bytes.to_string (payload codec v), cur.B.pos)
  | exception e -> Error (Printexc.to_string e)

let same_as_generic codec generic data =
  decode_outcome codec codec.Codec.decode data = decode_outcome codec generic data

(* Every way [data] can be cut or have one byte changed at [at]. *)
let damaged data ~at ~byte =
  let n = Bytes.length data in
  if n = 0 then [ data ]
  else begin
    let at = at mod n in
    let flipped = Bytes.copy data in
    Bytes.set flipped at (Char.chr byte);
    [ data; Bytes.sub data 0 at; flipped ]
  end

let test_decoders_match_generic_real () =
  let ifa, swift = Lazy.force c432s_small_artifacts in
  let ifa_bytes = payload Artifact.ifa ifa and swift_bytes = payload Artifact.swift swift in
  Alcotest.(check bool) "ifa = generic" true
    (Artifact.ifa.decode (B.cursor ifa_bytes) = Generic.ifa (B.cursor ifa_bytes));
  Alcotest.(check bool) "swift = generic" true
    (Artifact.swift.decode (B.cursor swift_bytes)
    = Generic.swift (B.cursor swift_bytes));
  (* A changed byte every 97: tags, counts, varints and labels. *)
  let check name codec generic data =
    for at = 0 to (Bytes.length data / 97) - 1 do
      List.iter
        (fun d ->
          if not (same_as_generic codec generic d) then
            Alcotest.failf "%s: differs from the generic decoder, byte %d damaged"
              name (at * 97))
        (damaged data ~at:(at * 97) ~byte:(at * 37 land 0xFF))
    done
  in
  check "ifa" Artifact.ifa Generic.ifa ifa_bytes;
  check "swift" Artifact.swift Generic.swift swift_bytes

let gen_realistic =
  let open QCheck.Gen in
  let id = oneof [ int_bound 300; int_bound 2_000_000 ] in
  let policy =
    oneofl Dl_switch.Realistic.[ Floats_low; Floats_high; Floats_unknown ]
  in
  let kind =
    oneof
      [
        map2 (fun node_a node_b -> Dl_switch.Realistic.Bridge { node_a; node_b }) id id;
        map (fun t -> Dl_switch.Realistic.Transistor_stuck_open t) id;
        map (fun t -> Dl_switch.Realistic.Transistor_stuck_on t) id;
        map3
          (fun gate pin policy -> Dl_switch.Realistic.Input_open { gate; pin; policy })
          id (int_bound 5) policy;
        map2 (fun node policy -> Dl_switch.Realistic.Stem_open { node; policy }) id policy;
      ]
  in
  map3
    (fun kind weight label -> { Dl_switch.Realistic.kind; weight; label })
    kind float (string_size ~gen:printable (int_bound 30))

let gen_summary =
  let open QCheck.Gen in
  let layer = oneofl Dl_layout.Geom.[ Diffusion_n; Diffusion_p; Poly; Metal1; Metal2; Contact; Via ] in
  let cls =
    oneof
      Dl_extract.Defect_stats.
        [ map (fun l -> Short_on l) layer; map (fun l -> Open_on l) layer;
          return Oxide_pinhole; return Contact_open ]
  in
  map3 (fun cls count total_weight -> { Dl_extract.Ifa.cls; count; total_weight })
    cls nat float

let gen_detection =
  let open QCheck.Gen in
  let first = opt (oneof [ int_bound 40; int_bound 300; int_bound 100_000 ]) in
  map2 (fun voltage iddq -> { Dl_switch.Swift.voltage; iddq }) first first

let damage = QCheck.Gen.(pair nat (int_bound 255))

let prop_ifa_decoder_matches_generic =
  QCheck.Test.make ~name:"ifa decoder = generic decoder, random artifacts" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (triple (array_size (int_bound 40) gen_realistic) float
              (list_size (int_bound 6) gen_summary))
           damage))
    (fun ((faults, gross_weight, summaries), (at, byte)) ->
      let data = payload Artifact.ifa { Artifact.faults; gross_weight; summaries } in
      List.for_all (same_as_generic Artifact.ifa Generic.ifa) (damaged data ~at ~byte))

let prop_swift_decoder_matches_generic =
  QCheck.Test.make ~name:"swift decoder = generic decoder, random artifacts"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (triple (array_size (int_bound 600) gen_detection) nat nat)
           damage))
    (fun ((detection, vectors_applied, region_solves), (at, byte)) ->
      let data =
        payload Artifact.swift
          { Dl_switch.Swift.detection; vectors_applied; region_solves }
      in
      List.for_all (same_as_generic Artifact.swift Generic.swift) (damaged data ~at ~byte))

(* The payloads with the envelope and its CRC out of the way, cut at every
   byte: each decoder must raise [Corrupt], and nothing else. *)
let test_truncated_real_payloads_corrupt () =
  let ifa, swift = Lazy.force c432s_small_artifacts in
  let check name (codec : _ Codec.t) v =
    let data = payload codec v in
    for len = 0 to Bytes.length data - 1 do
      match codec.decode (B.cursor (Bytes.sub data 0 len)) with
      | exception B.Corrupt _ -> ()
      | exception e ->
          Alcotest.failf "%s cut to %d bytes raised %s" name len (Printexc.to_string e)
      | _ -> Alcotest.failf "%s cut to %d bytes decoded" name len
    done
  in
  check "ifa" Artifact.ifa ifa;
  check "swift" Artifact.swift swift

let prop_summary_roundtrip =
  QCheck.Test.make ~name:"summaries round-trip" ~count:100
    QCheck.(pair string (pair (pair float float) (pair float bool)))
    (fun (text, ((fit_r, fit_theta_max), (fit_rmse, fit_rmse_log10))) ->
      let v =
        { Artifact.text; fit_r; fit_theta_max; fit_rmse; fit_rmse_log10;
          scale_factor = fit_r *. 2.0 }
      in
      match Codec.of_bytes Artifact.summary (Codec.to_bytes Artifact.summary v) with
      | Error _ -> false
      | Ok v' ->
          (* NaN-safe: compare float fields by bits. *)
          let bits = Int64.bits_of_float in
          v'.Artifact.text = v.Artifact.text
          && bits v'.Artifact.fit_r = bits v.Artifact.fit_r
          && bits v'.Artifact.fit_theta_max = bits v.Artifact.fit_theta_max
          && bits v'.Artifact.fit_rmse = bits v.Artifact.fit_rmse
          && v'.Artifact.fit_rmse_log10 = v.Artifact.fit_rmse_log10
          && bits v'.Artifact.scale_factor = bits v.Artifact.scale_factor)

(* --- statistical-stage artifacts ------------------------------------------ *)

module Wafer_mc = Dl_core.Wafer_mc
module Bootstrap = Dl_core.Bootstrap

let sample_wafer_mc () : Wafer_mc.t =
  let band i : Wafer_mc.band =
    { k = (i + 1) * 16; coverage = 0.2 *. float_of_int (i + 1);
      dl_point = 0.01 /. float_of_int (i + 1); dl_q05 = 0.001; dl_q50 = 0.005;
      dl_q95 = 0.02; passed = 900 - i; defective_passed = 9 - i;
      wafer_dls = Array.init (3 + i) (fun j -> 0.002 *. float_of_int j) }
  in
  { dies = 1000; dies_per_wafer = 256; wafers_per_lot = 4; wafers = 4;
    lots = 1; alpha_wafer = Float.infinity; alpha_lot = 2.5; defective = 250;
    bands = Array.init 3 band }

let sample_bootstrap_fit () =
  Bootstrap.of_samples ~fit_points:100
    ~point:
      { Dl_core.Projection.params = { r = 1.5; theta_max = 0.9 }; rmse = 0.01;
        rmse_scale = Linear }
    ~alpha_point:12.5
    ~r_samples:(Array.init 20 (fun i -> 1.4 +. (0.01 *. float_of_int i)))
    ~theta_max_samples:(Array.init 20 (fun i -> 0.88 +. (0.001 *. float_of_int i)))
    ~alpha_samples:(Array.init 20 (fun i -> 10.0 +. float_of_int i))

(* A c17 run with every optional stage on, and a c432s_small run with the
   library defaults. *)
let c17_all_stages dir =
  Dl_core.Experiment.config ~mc:(Dl_core.Experiment.mc ~dies:512 ())
    ~bootstrap:20 ~ndet:4 ?cache_dir:dir (Benchmarks.c17 ())

let c432s_small_defaults dir =
  Dl_core.Experiment.config ?cache_dir:dir (Benchmarks.c432s_small ())

let c17_run = lazy (Dl_core.Experiment.run (c17_all_stages None))

let test_wafer_mc_roundtrip () =
  (* Exact round-trip, including the infinite (no-clustering) alpha. *)
  Alcotest.(check bool) "wafer-mc" true
    (roundtrip Wafer_mc.codec (sample_wafer_mc ()));
  Alcotest.(check bool) "wafer-mc of a c17 run" true
    (roundtrip Wafer_mc.codec (Option.get (Lazy.force c17_run).wafer_mc))

let test_bootstrap_fit_roundtrip () =
  Alcotest.(check bool) "bootstrap-fit" true
    (roundtrip Bootstrap.codec (sample_bootstrap_fit ()));
  Alcotest.(check bool) "bootstrap-fit of a c17 run" true
    (roundtrip Bootstrap.codec (Option.get (Lazy.force c17_run).bootstrap_fit))

let test_wafer_mc_every_byte_flip_detected () =
  let data = Codec.to_bytes Wafer_mc.codec (sample_wafer_mc ()) in
  for i = 0 to Bytes.length data - 1 do
    let corrupted = Bytes.copy data in
    Bytes.set corrupted i
      (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x40));
    match Codec.of_bytes Wafer_mc.codec corrupted with
    | Ok _ -> Alcotest.failf "byte flip at %d went undetected" i
    | Error _ -> ()
  done

let test_bootstrap_fit_every_byte_flip_detected () =
  let data = Codec.to_bytes Bootstrap.codec (sample_bootstrap_fit ()) in
  for i = 0 to Bytes.length data - 1 do
    let corrupted = Bytes.copy data in
    Bytes.set corrupted i
      (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x40));
    match Codec.of_bytes Bootstrap.codec corrupted with
    | Ok _ -> Alcotest.failf "byte flip at %d went undetected" i
    | Error _ -> ()
  done

let stale_version_rejected (type a) (codec : a Codec.t) (v : a) =
  let bumped = { codec with Codec.version = codec.Codec.version + 1 } in
  match Codec.of_bytes codec (Codec.to_bytes bumped v) with
  | Error (Codec.Stale_version { expected; found }) ->
      expected = codec.Codec.version && found = expected + 1
  | _ -> false

let test_statistical_version_bump_is_stale () =
  Alcotest.(check bool) "wafer-mc stale" true
    (stale_version_rejected Wafer_mc.codec (sample_wafer_mc ()));
  Alcotest.(check bool) "bootstrap-fit stale" true
    (stale_version_rejected Bootstrap.codec (sample_bootstrap_fit ()))

let test_bootstrap_fit_length_mismatch_is_malformed () =
  (* The three sample arrays are parallel (one entry per replicate); a
     mismatched encoding must not decode, and its decoder fails as a
     corrupt payload does. *)
  let v = sample_bootstrap_fit () in
  let bad = { v with theta_max_samples = Array.make 3 0.9 } in
  (match Bootstrap.codec.decode (B.cursor (payload Bootstrap.codec bad)) with
  | exception B.Corrupt _ -> ()
  | exception e -> Alcotest.failf "raised %s, not Corrupt" (Printexc.to_string e)
  | _ -> Alcotest.fail "length-mismatched samples decoded");
  match Codec.of_bytes Bootstrap.codec (Codec.to_bytes Bootstrap.codec bad) with
  | Error (Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "length-mismatched samples decoded"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

(* Every format the store keeps, as the stage table declares it: a kind
   or version change here is a format change. *)
let test_codec_versions_from_stage_table () =
  Alcotest.(check (list (pair string int))) "stage codecs"
    [ ("circuit", 1); ("atpg", 1); ("stuck-faults", 1); ("detections", 2);
      ("ifa", 1); ("swift", 1); ("summary", 1); ("wafer-mc", 1);
      ("bootstrap-fit", 1); ("ndet-profile", 1); ("ndet-atpg", 1) ]
    Dl_core.Experiment.codec_versions

(* The MD5 of every stage artifact's bytes, as [Codec.to_bytes] of the
   computed value wrote them to the store.  A change here changes what a
   filled store holds: every stored artifact of that stage misses. *)
type any_codec = Any : 'a Codec.t -> any_codec

let stage_codecs =
  [ ("mapping", Any Artifact.circuit); ("atpg", Any Artifact.atpg);
    ("fault-universe", Any Artifact.stuck_faults);
    ("fault-sim", Any Artifact.detections); ("layout-ifa", Any Artifact.ifa);
    ("swift", Any Artifact.swift); ("projection", Any Artifact.summary);
    ("wafer-mc", Any Wafer_mc.codec); ("bootstrap-fit", Any Bootstrap.codec);
    ("ndet-sim", Any Artifact.ndet_profile);
    ("ndet-atpg", Any Artifact.ndet_atpg) ]

let pinned_artifact_digests =
  [
    ( c17_all_stages,
      [ ("mapping", "7f730f7e7bc51919871e0c400e934a1c");
        ("atpg", "242fe297eb14cb4572fb2a73bc0062da");
        ("fault-universe", "e1ec81682c7c4ac3b32fcf287d2173f6");
        ("fault-sim", "2793ea6e4609efbbb6242838147e3cae");
        ("layout-ifa", "e06d178ce0acacf0d1eed7813df3c380");
        ("swift", "db98da96a98994dc664cff30216bc936");
        ("projection", "c87b7c237b96cf1d22c8d8ebf531a0a8");
        ("wafer-mc", "d50f771e5deb1439fbc3b4ec0113f46a");
        ("bootstrap-fit", "faaf25b36c1a62654f64d96d69de6f54");
        ("ndet-sim", "bf817eb6a6b03983986feccd29fb75f5");
        ("ndet-atpg", "9434374f9e954e8fad60bf9172830ffe") ] );
    ( c432s_small_defaults,
      [ ("mapping", "443cd622af139050bbcbb6c9987bddde");
        ("atpg", "fc8b0a9d14a3da07e8f98e36845c5548");
        ("fault-universe", "998c65e6a8ad39795eee8585730a1a63");
        ("fault-sim", "e78ae52ae9b98edf0051ae3c6609495d");
        ("layout-ifa", "739718f344427435b3d2cbad8f52d7e3");
        ("swift", "0ca39d298a29c76e63cd8c811e8fcf2c");
        ("projection", "16887e89fdecc49eaef77d2ade58d2fb") ] );
  ]

let test_artifact_bytes_pinned () =
  List.iter
    (fun (config, digests) ->
      with_store_dir (fun dir ->
          let cfg = config (Some dir) in
          ignore (Dl_core.Experiment.run cfg);
          let store = Store.open_ dir in
          let keys = Dl_core.Experiment.stage_keys cfg in
          Alcotest.(check (list string)) "stages" (List.map fst digests)
            (List.map fst keys);
          List.iter
            (fun (stage, key) ->
              let data = Option.get (Store.load store key) in
              Alcotest.(check string) (stage ^ " digest")
                (List.assoc stage digests)
                (Digest.to_hex (Digest.bytes data));
              let (Any codec) = List.assoc stage stage_codecs in
              match Codec.of_bytes codec data with
              | Ok v ->
                  Alcotest.(check bool) (stage ^ " re-encodes") true
                    (Bytes.equal (Codec.to_bytes codec v) data)
              | Error e -> Alcotest.fail (Codec.error_to_string e))
            keys))
    pinned_artifact_digests

(* --- store ---------------------------------------------------------------- *)

let test_store_put_load () =
  with_store_dir (fun dir ->
      let s = Store.open_ dir in
      let c = Benchmarks.c17 () in
      let data = Codec.to_bytes Artifact.circuit c in
      let key = Codec.content_key Artifact.circuit c in
      Alcotest.(check bool) "absent before put" false (Store.mem s key);
      Store.put s ~key ~kind:"circuit" ~version:1 data;
      Alcotest.(check bool) "present after put" true (Store.mem s key);
      (match Store.load s key with
      | Some loaded -> Alcotest.(check bool) "same bytes" true (loaded = data)
      | None -> Alcotest.fail "load failed");
      let stats = Store.stats s in
      Alcotest.(check int) "one object" 1 stats.objects;
      Store.remove s key;
      Alcotest.(check bool) "absent after remove" false (Store.mem s key);
      Store.put s ~key ~kind:"circuit" ~version:1 data;
      Store.clear s;
      Alcotest.(check int) "empty after clear" 0 (Store.stats s).objects)

let test_store_verify_detects_corruption () =
  with_store_dir (fun dir ->
      let s = Store.open_ dir in
      let c = Benchmarks.c17 () in
      let key = Codec.content_key Artifact.circuit c in
      Store.put s ~key ~kind:"circuit" ~version:1
        (Codec.to_bytes Artifact.circuit c);
      Alcotest.(check (list (pair string string))) "clean store" []
        (Store.verify s).corrupt;
      (* Flip one byte in the middle of the object file. *)
      let path = Store.object_path s key in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      let data = Bytes.of_string data in
      Bytes.set data (len / 2) (Char.chr (Char.code (Bytes.get data (len / 2)) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      let report = Store.verify s in
      Alcotest.(check int) "one corrupt" 1 (List.length report.corrupt);
      Alcotest.(check string) "the corrupted key" key
        (fst (List.hd report.corrupt)))

let test_store_gc_drops_stale_and_corrupt () =
  with_store_dir (fun dir ->
      let s = Store.open_ dir in
      let c = Benchmarks.c17 () in
      (* One live artifact, one with a stale format version, one corrupt. *)
      Store.put s ~key:(String.make 32 'a') ~kind:"circuit" ~version:1
        (Codec.to_bytes Artifact.circuit c);
      let stale_codec =
        { Artifact.circuit with Codec.version = Artifact.circuit.Codec.version + 1 }
      in
      Store.put s ~key:(String.make 32 'b') ~kind:"circuit"
        ~version:stale_codec.Codec.version
        (Codec.to_bytes stale_codec c);
      Store.put s ~key:(String.make 32 'c') ~kind:"circuit" ~version:1
        (Bytes.of_string "garbage, not an envelope");
      let r = Store.gc ~current:[ ("circuit", 1) ] s in
      Alcotest.(check int) "kept" 1 r.kept;
      Alcotest.(check int) "stale dropped" 1 r.removed_stale;
      Alcotest.(check int) "corrupt dropped" 1 r.removed_corrupt;
      Alcotest.(check bool) "live survives" true (Store.mem s (String.make 32 'a'));
      (* Size-capped eviction: oldest goes first (valid envelopes, so only
         the size cap can remove them). *)
      Store.clear s;
      let faults = Dl_fault.Stuck_at.universe (Benchmarks.c432s ()) in
      let payload = Codec.to_bytes Artifact.stuck_faults faults in
      let kind = Artifact.stuck_faults.Codec.kind in
      let version = Artifact.stuck_faults.Codec.version in
      Store.put s ~key:(String.make 32 'd') ~kind ~version payload;
      Store.put s ~key:(String.make 32 'e') ~kind ~version payload;
      let cap = Bytes.length payload * 3 / 2 in
      let r = Store.gc ~current:[ (kind, version) ] ~max_bytes:cap s in
      Alcotest.(check int) "evicted one" 1 r.removed_evicted;
      Alcotest.(check bool) "oldest evicted" false
        (Store.mem s (String.make 32 'd'));
      Alcotest.(check bool) "newest kept" true (Store.mem s (String.make 32 'e')))

(* --- stage graph ---------------------------------------------------------- *)

let test_stage_hit_miss () =
  with_store_dir (fun dir ->
      let store = Store.open_ dir in
      let computes = ref 0 in
      let f () = incr computes; Benchmarks.c17 () in
      let g = Stage.create ~store () in
      let v1, k1 = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      let v2, k2 = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      Alcotest.(check int) "computed once" 1 !computes;
      Alcotest.(check bool) "same key" true (k1 = k2);
      Alcotest.(check bool) "same value" true (v1 = v2);
      (match Stage.reports g with
      | [ a; b ] ->
          Alcotest.(check bool) "miss then hit" true
            (a.Stage.outcome = Stage.Miss && b.Stage.outcome = Stage.Hit)
      | _ -> Alcotest.fail "expected two reports");
      (* Corrupt the stored artifact: next run recomputes and repairs. *)
      let path = Store.object_path store k1 in
      let oc = open_out_bin path in
      output_string oc "junk";
      close_out oc;
      let v3, _ = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      Alcotest.(check int) "recomputed" 2 !computes;
      Alcotest.(check bool) "same value after repair" true (v3 = v1);
      let v4, _ = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      Alcotest.(check int) "repaired artifact hits" 2 !computes;
      ignore v4)

let test_stage_version_bump_is_miss () =
  with_store_dir (fun dir ->
      let store = Store.open_ dir in
      let computes = ref 0 in
      let f () = incr computes; Benchmarks.c17 () in
      let g = Stage.create ~store () in
      let _ = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      let bumped =
        { Artifact.circuit with Codec.version = Artifact.circuit.Codec.version + 1 }
      in
      (* The bumped codec derives a different stage key, so an old-format
         artifact can never even be looked up under the new key... *)
      let k_old = Stage.key ~stage:"s" ~codec:Artifact.circuit ~config:[] ~inputs:[] in
      let k_new = Stage.key ~stage:"s" ~codec:bumped ~config:[] ~inputs:[] in
      Alcotest.(check bool) "version changes the key" false (k_old = k_new);
      let _ = Stage.run g ~stage:"s" ~codec:bumped ~inputs:[] f in
      Alcotest.(check int) "bumped version recomputes" 2 !computes;
      (* ...and even a same-key stale envelope decodes to a miss. *)
      (match Store.load store k_old with
      | Some old_data -> Store.put store ~key:k_new ~kind:"circuit" ~version:1 old_data
      | None -> Alcotest.fail "old artifact missing");
      Store.clear store |> ignore;
      Store.put store ~key:k_new ~kind:"circuit"
        ~version:Artifact.circuit.Codec.version
        (Codec.to_bytes Artifact.circuit (Benchmarks.c17 ()));
      let g2 = Stage.create ~store () in
      let _ = Stage.run g2 ~stage:"s" ~codec:bumped ~inputs:[] f in
      Alcotest.(check int) "stale envelope recomputes" 3 !computes)

let test_stage_key_sensitivity () =
  let base ~stage ~config ~inputs =
    Stage.key ~stage ~codec:Artifact.circuit ~config ~inputs
  in
  let k = base ~stage:"s" ~config:[ ("a", "1") ] ~inputs:[ "i1" ] in
  Alcotest.(check bool) "stage name" false
    (k = base ~stage:"t" ~config:[ ("a", "1") ] ~inputs:[ "i1" ]);
  Alcotest.(check bool) "config value" false
    (k = base ~stage:"s" ~config:[ ("a", "2") ] ~inputs:[ "i1" ]);
  Alcotest.(check bool) "input key" false
    (k = base ~stage:"s" ~config:[ ("a", "1") ] ~inputs:[ "i2" ]);
  Alcotest.(check bool) "deterministic" true
    (k = base ~stage:"s" ~config:[ ("a", "1") ] ~inputs:[ "i1" ])

(* --- cached experiment pipeline ------------------------------------------- *)

module Experiment = Dl_core.Experiment

let outcome (e : Experiment.t) stage =
  (List.find (fun (r : Stage.report) -> r.stage = stage) e.stage_reports).outcome

let stage_key (e : Experiment.t) stage =
  (List.find (fun (r : Stage.report) -> r.stage = stage) e.stage_reports).key

let all_stages =
  [ "mapping"; "atpg"; "fault-universe"; "fault-sim"; "layout-ifa"; "swift";
    "projection" ]

let test_experiment_cold_warm_and_invalidation () =
  with_store_dir (fun dir ->
      let circuit = Benchmarks.c432s_small () in
      let run ?(seed = 7) ?(target_yield = 0.75) ?(collapse_faults = true)
          ?(domains = 1) () =
        Experiment.run
          (Experiment.config ~seed ~max_random_vectors:64 ~target_yield
             ~domains ~collapse_faults ~cache_dir:dir circuit)
      in
      let cold = run () in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " cold miss") true
            (outcome cold s = Stage.Miss))
        all_stages;
      let warm = run () in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " warm hit") true
            (outcome warm s = Stage.Hit))
        all_stages;
      Alcotest.(check string) "warm summary byte-identical" cold.summary
        warm.summary;
      Alcotest.(check bool) "warm fit identical" true (cold.fit = warm.fit);
      Alcotest.(check bool) "warm curves identical" true
        (cold.t_curve = warm.t_curve && cold.theta_curve = warm.theta_curve
        && cold.gamma_curve = warm.gamma_curve);
      (* domains is excluded from every key: still a full hit. *)
      let par = run ~domains:2 () in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " domain-count hit") true
            (outcome par s = Stage.Hit))
        all_stages;
      (* target_yield only re-runs the projection. *)
      let yld = run ~target_yield:0.9 () in
      List.iter
        (fun s ->
          let expected = if s = "projection" then Stage.Miss else Stage.Hit in
          Alcotest.(check bool) (s ^ " yield-change outcome") true
            (outcome yld s = expected))
        all_stages;
      Alcotest.(check bool) "projection key moved" false
        (stage_key yld "projection" = stage_key cold "projection");
      (* A new seed re-runs ATPG and everything fed by its vectors, but not
         the mapping or the layout extraction. *)
      let seeded = run ~seed:8 () in
      List.iter
        (fun (s, expected) ->
          Alcotest.(check bool) (s ^ " seed-change outcome") true
            (outcome seeded s = expected))
        [ ("mapping", Stage.Hit); ("atpg", Stage.Miss);
          ("fault-universe", Stage.Miss); ("fault-sim", Stage.Miss);
          ("layout-ifa", Stage.Hit); ("swift", Stage.Miss);
          ("projection", Stage.Miss) ];
      (* Collapsing is a property of the simulated universe only. *)
      let uncollapsed = run ~collapse_faults:false () in
      List.iter
        (fun (s, expected) ->
          Alcotest.(check bool) (s ^ " collapse-change outcome") true
            (outcome uncollapsed s = expected))
        [ ("mapping", Stage.Hit); ("atpg", Stage.Hit);
          ("fault-universe", Stage.Miss); ("fault-sim", Stage.Miss);
          ("layout-ifa", Stage.Hit); ("swift", Stage.Hit);
          ("projection", Stage.Miss) ])

let test_experiment_uncached_matches_cached () =
  with_store_dir (fun dir ->
      let circuit = Benchmarks.c432s_small () in
      let cached =
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:64 ~domains:1
             ~cache_dir:dir circuit)
      in
      let warm =
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:64 ~domains:1
             ~cache_dir:dir circuit)
      in
      let plain =
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:64 ~domains:1 circuit)
      in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " uncached outcome") true
            (outcome plain s = Stage.Uncached))
        all_stages;
      Alcotest.(check string) "uncached = cold summary" plain.summary
        cached.summary;
      Alcotest.(check string) "uncached = warm summary" plain.summary
        warm.summary;
      Alcotest.(check bool) "same stage keys with and without a store" true
        (List.for_all
           (fun s -> stage_key plain s = stage_key cached s)
           all_stages))

(* The layout is built by a layout-ifa miss and by nothing on a warm run;
   forced afterwards, it is the cold run's layout. *)
let test_layout_built_on_demand () =
  with_store_dir (fun dir ->
      let cfg =
        Experiment.config ~seed:7 ~max_random_vectors:16 ~domains:1
          ~cache_dir:dir (Benchmarks.c432s_small ())
      in
      let cold = Experiment.run cfg in
      Alcotest.(check bool) "cold run built the layout" true
        (Lazy.is_val cold.extraction.layout);
      let warm = Experiment.run cfg in
      Alcotest.(check bool) "warm run hit every stage" true
        (List.for_all (fun s -> outcome warm s = Stage.Hit) all_stages);
      Alcotest.(check bool) "warm run left the layout unbuilt" false
        (Lazy.is_val warm.extraction.layout);
      Alcotest.(check bool) "forced warm layout = cold layout" true
        (Lazy.force warm.extraction.layout = Lazy.force cold.extraction.layout))

let test_statistical_stage_key_sensitivity () =
  (* The MC / bootstrap knobs must fingerprint ONLY their own stages: the
     simulation artifacts of a tuned re-run stay warm.  stage_keys derives
     every key without executing anything. *)
  let circuit = Benchmarks.c17 () in
  let keys ?mc ?bootstrap ?(target_yield = 0.75) ?(seed = 7) () =
    Experiment.stage_keys
      (Experiment.config ~seed ~max_random_vectors:64 ~target_yield ?mc
         ?bootstrap circuit)
  in
  let key stage l = List.assoc stage l in
  let base = keys () in
  Alcotest.(check int) "base pipeline has 7 stages" 7 (List.length base);
  let mc1 = keys ~mc:(Experiment.mc ~dies:1000 ()) () in
  let mc2 = keys ~mc:(Experiment.mc ~dies:2000 ()) () in
  let mc3 = keys ~mc:(Experiment.mc ~dies:1000 ~alpha_wafer:2.0 ()) () in
  let boot1 = keys ~bootstrap:100 () in
  let boot2 = keys ~bootstrap:200 () in
  let both = keys ~mc:(Experiment.mc ~dies:1000 ()) ~bootstrap:100 () in
  Alcotest.(check int) "mc adds one stage" 8 (List.length mc1);
  Alcotest.(check int) "mc + bootstrap adds two" 9 (List.length both);
  Alcotest.(check bool) "enabling mc moves no base key" true
    (List.for_all (fun (s, k) -> key s mc1 = k) base);
  Alcotest.(check bool) "enabling bootstrap moves no base key" true
    (List.for_all (fun (s, k) -> key s boot1 = k) base);
  Alcotest.(check bool) "mc-dies moves the wafer-mc key" false
    (key "wafer-mc" mc1 = key "wafer-mc" mc2);
  Alcotest.(check bool) "alpha moves the wafer-mc key" false
    (key "wafer-mc" mc1 = key "wafer-mc" mc3);
  Alcotest.(check bool) "mc-dies moves nothing else" true
    (List.for_all (fun (s, k) -> s = "wafer-mc" || key s mc2 = k) mc1);
  Alcotest.(check bool) "replicate count moves the bootstrap-fit key" false
    (key "bootstrap-fit" boot1 = key "bootstrap-fit" boot2);
  Alcotest.(check bool) "replicate count moves nothing else" true
    (List.for_all (fun (s, k) -> s = "bootstrap-fit" || key s boot2 = k) boot1);
  Alcotest.(check bool) "mc knobs never touch the bootstrap-fit key" true
    (key "bootstrap-fit" both = key "bootstrap-fit" boot1);
  (* Both statistical stages depend on the projection inputs: yield and
     seed changes reach them. *)
  let yld = keys ~mc:(Experiment.mc ~dies:1000 ()) ~bootstrap:100
      ~target_yield:0.9 () in
  Alcotest.(check bool) "target yield moves wafer-mc" false
    (key "wafer-mc" both = key "wafer-mc" yld);
  Alcotest.(check bool) "target yield moves bootstrap-fit" false
    (key "bootstrap-fit" both = key "bootstrap-fit" yld);
  let seeded = keys ~mc:(Experiment.mc ~dies:1000 ()) ~bootstrap:100 ~seed:8 () in
  Alcotest.(check bool) "seed moves wafer-mc (via its inputs)" false
    (key "wafer-mc" both = key "wafer-mc" seeded);
  Alcotest.(check bool) "seed moves bootstrap-fit (via its inputs)" false
    (key "bootstrap-fit" both = key "bootstrap-fit" seeded)

let () =
  Random.self_init ();
  Alcotest.run "store"
    [
      ( "binary",
        List.map QCheck_alcotest.to_alcotest
          [ prop_varint_roundtrip; prop_int_roundtrip; prop_float_roundtrip;
            prop_string_roundtrip; prop_packed_bools_roundtrip;
            prop_crc32_equals_int32 ]
        @ [
            Alcotest.test_case "float special values" `Quick
              test_float_special_values;
            Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_vector;
            Alcotest.test_case "truncation raises Corrupt" `Quick
              test_truncation_is_corrupt;
          ] );
      ( "codec",
        [
          Alcotest.test_case "envelope round-trip + inspect" `Quick
            test_envelope_roundtrip;
          Alcotest.test_case "every single-byte flip detected" `Quick
            test_every_byte_flip_detected;
          Alcotest.test_case "version bump is stale" `Quick
            test_version_bump_is_stale;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "garbage is bad magic" `Quick
            test_garbage_is_bad_magic;
        ] );
      ( "artifacts",
        List.map QCheck_alcotest.to_alcotest
          [ prop_circuit_roundtrip; prop_stuck_faults_roundtrip;
            prop_patterns_roundtrip; prop_detections_roundtrip;
            prop_summary_roundtrip; prop_ifa_decoder_matches_generic;
            prop_swift_decoder_matches_generic ]
        @ [
            Alcotest.test_case "built-in circuits round-trip" `Quick
              test_builtin_circuits_roundtrip;
            Alcotest.test_case "ifa + swift artifacts round-trip" `Quick
              test_ifa_swift_roundtrip;
            Alcotest.test_case "ifa + swift decoders = generic, real artifacts"
              `Quick test_decoders_match_generic_real;
            Alcotest.test_case "truncated ifa + swift payloads are Corrupt" `Slow
              test_truncated_real_payloads_corrupt;
            Alcotest.test_case "wafer-mc round-trip" `Quick
              test_wafer_mc_roundtrip;
            Alcotest.test_case "bootstrap-fit round-trip" `Quick
              test_bootstrap_fit_roundtrip;
            Alcotest.test_case "wafer-mc every byte flip detected" `Quick
              test_wafer_mc_every_byte_flip_detected;
            Alcotest.test_case "bootstrap-fit every byte flip detected" `Quick
              test_bootstrap_fit_every_byte_flip_detected;
            Alcotest.test_case "statistical version bumps are stale" `Quick
              test_statistical_version_bump_is_stale;
            Alcotest.test_case "bootstrap-fit sample mismatch rejected" `Quick
              test_bootstrap_fit_length_mismatch_is_malformed;
            Alcotest.test_case "codec versions from the stage table" `Quick
              test_codec_versions_from_stage_table;
            Alcotest.test_case "stage artifact bytes pinned" `Quick
              test_artifact_bytes_pinned;
          ] );
      ( "store",
        [
          Alcotest.test_case "put/load/remove/clear" `Quick test_store_put_load;
          Alcotest.test_case "verify detects corruption" `Quick
            test_store_verify_detects_corruption;
          Alcotest.test_case "gc drops stale and corrupt" `Quick
            test_store_gc_drops_stale_and_corrupt;
        ] );
      ( "stage",
        [
          Alcotest.test_case "hit, miss, corruption repair" `Quick
            test_stage_hit_miss;
          Alcotest.test_case "version bump is a miss" `Quick
            test_stage_version_bump_is_miss;
          Alcotest.test_case "key sensitivity" `Quick test_stage_key_sensitivity;
          Alcotest.test_case "statistical stage-key sensitivity" `Quick
            test_statistical_stage_key_sensitivity;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "cold/warm + key invalidation" `Slow
            test_experiment_cold_warm_and_invalidation;
          Alcotest.test_case "uncached matches cached" `Slow
            test_experiment_uncached_matches_cached;
          Alcotest.test_case "layout built on demand" `Quick
            test_layout_built_on_demand;
        ] );
    ]
