open Dl_netlist
module B = Dl_util.Binary
module Stuck_at = Dl_fault.Stuck_at
module Realistic = Dl_switch.Realistic
module Geom = Dl_layout.Geom
module Defect_stats = Dl_extract.Defect_stats

(* The hot reads of the ifa and swift decoders, here so that they inline:
   the common case (in bounds, a one-byte varint, a 0/1 option tag) is
   read directly, and anything else is handed to [B] from the same offset,
   so every error is [B]'s own. *)
let byte (c : B.cursor) =
  let pos = c.pos in
  if pos < Bytes.length c.data then begin
    c.pos <- pos + 1;
    Char.code (Bytes.unsafe_get c.data pos)
  end
  else B.read_byte c

let varint (c : B.cursor) =
  let pos = c.pos in
  if pos < Bytes.length c.data && Bytes.unsafe_get c.data pos < '\x80' then begin
    c.pos <- pos + 1;
    Char.code (Bytes.unsafe_get c.data pos)
  end
  else B.read_varint c

let varint_option (c : B.cursor) =
  let pos = c.pos in
  match if pos < Bytes.length c.data then Bytes.unsafe_get c.data pos else '\255' with
  | '\000' ->
      c.pos <- pos + 1;
      None
  | '\001' ->
      c.pos <- pos + 1;
      Some (varint c)
  | _ -> B.read_option B.read_varint c

(* [B.read_array decode c] as a loop, for a [decode] that inlines.  Like
   [Array.init], it makes the array from the first element, and a
   negative count fails as it does. *)
let[@inline] read_array_with decode c =
  let n = B.read_count c in
  if n < 0 then invalid_arg "Array.init"
  else if n = 0 then [||]
  else begin
    let a = Array.make n (decode c) in
    for i = 1 to n - 1 do
      Array.unsafe_set a i (decode c)
    done;
    a
  end

(* ----------------------------------------------------------- circuit *)

let encode_circuit buf (c : Circuit.t) =
  B.write_string buf c.title;
  B.write_varint buf (Array.length c.nodes);
  Array.iter
    (fun (n : Circuit.node) ->
      B.write_string buf n.name;
      B.write_byte buf (Gate.opcode n.kind);
      B.write_array (fun b id -> B.write_varint b id) buf n.fanin)
    c.nodes;
  B.write_array (fun b id -> B.write_varint b id) buf c.outputs

let decode_circuit cur =
  let title = B.read_string cur in
  let n = B.read_varint cur in
  let decls =
    Array.init n (fun _ ->
        let name = B.read_string cur in
        let kind = Gate.kind_of_opcode (B.read_byte cur) in
        let fanin = B.read_array B.read_varint cur in
        (name, kind, fanin))
  in
  let outputs = B.read_array B.read_varint cur in
  let name_of id =
    if id < 0 || id >= n then raise (B.Corrupt "node id out of range");
    let name, _, _ = decls.(id) in
    name
  in
  (* Re-declaring in stored (= original id) order reproduces the exact
     node ids: Builder.finalize assigns ids in declaration order and
     derives inputs/levels/topo deterministically. *)
  let b = Circuit.Builder.create ~title in
  try
    Array.iter
      (fun (name, kind, fanin) ->
        if kind = Gate.Input then Circuit.Builder.add_input b name
        else
          Circuit.Builder.add_gate b name kind
            (Array.to_list (Array.map name_of fanin)))
      decls;
    Array.iter (fun id -> Circuit.Builder.add_output b (name_of id)) outputs;
    Circuit.Builder.finalize b
  with Circuit.Malformed m -> raise (B.Corrupt ("malformed circuit: " ^ m))

let circuit : Circuit.t Codec.t =
  { kind = "circuit"; version = 1; encode = encode_circuit; decode = decode_circuit }

(* ---------------------------------------------------------- patterns *)

let encode_patterns buf (vs : bool array array) =
  B.write_array B.write_bools_packed buf vs

let decode_patterns cur = B.read_array B.read_bools_packed cur

(* ------------------------------------------------------ stuck faults *)

let encode_stuck buf (f : Stuck_at.t) =
  (match f.site with
  | Stuck_at.Stem id ->
      B.write_byte buf 0;
      B.write_varint buf id
  | Stuck_at.Branch { gate; pin } ->
      B.write_byte buf 1;
      B.write_varint buf gate;
      B.write_varint buf pin);
  B.write_bool buf (Stuck_at.polarity_bool f.polarity)

let decode_stuck cur : Stuck_at.t =
  let site =
    match B.read_byte cur with
    | 0 -> Stuck_at.Stem (B.read_varint cur)
    | 1 ->
        let gate = B.read_varint cur in
        let pin = B.read_varint cur in
        Stuck_at.Branch { gate; pin }
    | t -> raise (B.Corrupt (Printf.sprintf "bad fault-site tag %d" t))
  in
  let polarity = if B.read_bool cur then Stuck_at.Sa1 else Stuck_at.Sa0 in
  { site; polarity }

let stuck_faults : Stuck_at.t array Codec.t =
  {
    kind = "stuck-faults";
    version = 1;
    encode = (fun buf a -> B.write_array encode_stuck buf a);
    decode = B.read_array decode_stuck;
  }

(* -------------------------------------------------------------- atpg *)

let atpg : Dl_atpg.Atpg.result Codec.t =
  let encode buf (a : Dl_atpg.Atpg.result) =
    encode_patterns buf a.vectors;
    let s = a.stats in
    B.write_varint buf s.total_faults;
    B.write_varint buf s.random_detected;
    B.write_varint buf s.deterministic_detected;
    B.write_varint buf s.untestable;
    B.write_varint buf s.aborted;
    B.write_varint buf s.random_vectors;
    B.write_varint buf s.deterministic_vectors;
    B.write_float buf a.coverage;
    B.write_array encode_stuck buf a.untestable_faults;
    B.write_array encode_stuck buf a.aborted_faults
  in
  let decode cur : Dl_atpg.Atpg.result =
    let vectors = decode_patterns cur in
    let total_faults = B.read_varint cur in
    let random_detected = B.read_varint cur in
    let deterministic_detected = B.read_varint cur in
    let untestable = B.read_varint cur in
    let aborted = B.read_varint cur in
    let random_vectors = B.read_varint cur in
    let deterministic_vectors = B.read_varint cur in
    let coverage = B.read_float cur in
    let untestable_faults = B.read_array decode_stuck cur in
    let aborted_faults = B.read_array decode_stuck cur in
    {
      vectors;
      stats =
        {
          total_faults;
          random_detected;
          deterministic_detected;
          untestable;
          aborted;
          random_vectors;
          deterministic_vectors;
        };
      coverage;
      untestable_faults;
      aborted_faults;
    }
  in
  { kind = "atpg"; version = 1; encode; decode }

(* -------------------------------------------------------- detections *)

type detections = {
  first_detection : int option array;
  vectors_applied : int;
  gate_evaluations : int;
  sim_stats : Dl_fault.Fault_sim.Stats.t;
}

let write_sim_stats buf (s : Dl_fault.Fault_sim.Stats.t) =
  B.write_varint buf s.gate_evaluations;
  B.write_varint buf s.events;
  B.write_varint buf s.faults_inferred;
  B.write_varint buf s.faults_simulated;
  B.write_varint buf s.stem_simulations;
  B.write_varint buf s.faults_dropped

let read_sim_stats cur : Dl_fault.Fault_sim.Stats.t =
  let gate_evaluations = B.read_varint cur in
  let events = B.read_varint cur in
  let faults_inferred = B.read_varint cur in
  let faults_simulated = B.read_varint cur in
  let stem_simulations = B.read_varint cur in
  let faults_dropped = B.read_varint cur in
  { gate_evaluations; events; faults_inferred; faults_simulated;
    stem_simulations; faults_dropped }

let detections : detections Codec.t =
  let encode buf d =
    B.write_array (B.write_option (fun b v -> B.write_varint b v)) buf d.first_detection;
    B.write_varint buf d.vectors_applied;
    B.write_varint buf d.gate_evaluations;
    write_sim_stats buf d.sim_stats
  in
  let decode cur =
    let first_detection = B.read_array (B.read_option B.read_varint) cur in
    let vectors_applied = B.read_varint cur in
    let gate_evaluations = B.read_varint cur in
    let sim_stats = read_sim_stats cur in
    { first_detection; vectors_applied; gate_evaluations; sim_stats }
  in
  { kind = "detections"; version = 2; encode; decode }

(* --------------------------------------------------------------- ifa *)

let layer_code = function
  | Geom.Diffusion_n -> 0
  | Geom.Diffusion_p -> 1
  | Geom.Poly -> 2
  | Geom.Metal1 -> 3
  | Geom.Metal2 -> 4
  | Geom.Contact -> 5
  | Geom.Via -> 6

let layer_of_code = function
  | 0 -> Geom.Diffusion_n
  | 1 -> Geom.Diffusion_p
  | 2 -> Geom.Poly
  | 3 -> Geom.Metal1
  | 4 -> Geom.Metal2
  | 5 -> Geom.Contact
  | 6 -> Geom.Via
  | c -> raise (B.Corrupt (Printf.sprintf "bad layer code %d" c))

let policy_code = function
  | Realistic.Floats_low -> 0
  | Realistic.Floats_high -> 1
  | Realistic.Floats_unknown -> 2

let policy_of_code = function
  | 0 -> Realistic.Floats_low
  | 1 -> Realistic.Floats_high
  | 2 -> Realistic.Floats_unknown
  | c -> raise (B.Corrupt (Printf.sprintf "bad float-policy code %d" c))

let encode_realistic buf (f : Realistic.t) =
  (match f.kind with
  | Realistic.Bridge { node_a; node_b } ->
      B.write_byte buf 0;
      B.write_varint buf node_a;
      B.write_varint buf node_b
  | Realistic.Transistor_stuck_open t ->
      B.write_byte buf 1;
      B.write_varint buf t
  | Realistic.Transistor_stuck_on t ->
      B.write_byte buf 2;
      B.write_varint buf t
  | Realistic.Input_open { gate; pin; policy } ->
      B.write_byte buf 3;
      B.write_varint buf gate;
      B.write_varint buf pin;
      B.write_byte buf (policy_code policy)
  | Realistic.Stem_open { node; policy } ->
      B.write_byte buf 4;
      B.write_varint buf node;
      B.write_byte buf (policy_code policy));
  B.write_float buf f.weight;
  B.write_string buf f.label

let decode_realistic cur : Realistic.t =
  let kind =
    match byte cur with
    | 0 ->
        let node_a = varint cur in
        let node_b = varint cur in
        Realistic.Bridge { node_a; node_b }
    | 1 -> Realistic.Transistor_stuck_open (varint cur)
    | 2 -> Realistic.Transistor_stuck_on (varint cur)
    | 3 ->
        let gate = varint cur in
        let pin = varint cur in
        let policy = policy_of_code (byte cur) in
        Realistic.Input_open { gate; pin; policy }
    | 4 ->
        let node = varint cur in
        let policy = policy_of_code (byte cur) in
        Realistic.Stem_open { node; policy }
    | t -> raise (B.Corrupt (Printf.sprintf "bad realistic-fault tag %d" t))
  in
  let weight = B.read_float cur in
  let label = B.read_string cur in
  { kind; weight; label }

let encode_defect_class buf = function
  | Defect_stats.Short_on layer ->
      B.write_byte buf 0;
      B.write_byte buf (layer_code layer)
  | Defect_stats.Open_on layer ->
      B.write_byte buf 1;
      B.write_byte buf (layer_code layer)
  | Defect_stats.Oxide_pinhole -> B.write_byte buf 2
  | Defect_stats.Contact_open -> B.write_byte buf 3

let decode_defect_class cur =
  match B.read_byte cur with
  | 0 -> Defect_stats.Short_on (layer_of_code (B.read_byte cur))
  | 1 -> Defect_stats.Open_on (layer_of_code (B.read_byte cur))
  | 2 -> Defect_stats.Oxide_pinhole
  | 3 -> Defect_stats.Contact_open
  | t -> raise (B.Corrupt (Printf.sprintf "bad defect-class tag %d" t))

type ifa = {
  faults : Realistic.t array;
  gross_weight : float;
  summaries : Dl_extract.Ifa.class_summary list;
}

let ifa : ifa Codec.t =
  let encode buf x =
    B.write_array encode_realistic buf x.faults;
    B.write_float buf x.gross_weight;
    B.write_list
      (fun b (s : Dl_extract.Ifa.class_summary) ->
        encode_defect_class b s.cls;
        B.write_varint b s.count;
        B.write_float b s.total_weight)
      buf x.summaries
  in
  let decode cur =
    let faults = read_array_with decode_realistic cur in
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
  in
  { kind = "ifa"; version = 1; encode; decode }

(* ------------------------------------------------------------- swift *)

(* Detections repeat: most faults are first detected within the first few
   vectors.  Decoding shares equal [Some k] values and equal records
   (immutable, so sharing is invisible) through small per-decode caches,
   which spares the minor heap most of what it would otherwise promote
   into the large detection array. *)
type detection_cache = {
  somes : int option array;  (* [somes.(k)] is [Some k] once seen *)
  records : Dl_switch.Swift.detection array;  (* direct-mapped *)
}

let detection_cache_size = 256

let undetected : Dl_switch.Swift.detection = { voltage = None; iddq = None }

let detection_cache () =
  {
    somes = Array.make detection_cache_size None;
    records = Array.make detection_cache_size undetected;
  }

(* [varint_option], with [Some k] shared for small [k]. *)
let shared_option cache c =
  match varint_option c with
  | Some k when k < detection_cache_size -> (
      match cache.somes.(k) with
      | Some _ as s -> s
      | None ->
          let s = Some k in
          cache.somes.(k) <- s;
          s)
  | o -> o

let code = function None -> 0 | Some k -> k + 1

let decode_detection cache cur : Dl_switch.Swift.detection =
  let voltage = shared_option cache cur in
  let iddq = shared_option cache cur in
  let slot =
    ((code voltage * 31) + code iddq) land (detection_cache_size - 1)
  in
  let r = cache.records.(slot) in
  if r.voltage == voltage && r.iddq == iddq then r
  else begin
    let r = { Dl_switch.Swift.voltage; iddq } in
    cache.records.(slot) <- r;
    r
  end

let swift : Dl_switch.Swift.result Codec.t =
  let encode buf (x : Dl_switch.Swift.result) =
    B.write_array
      (fun b (d : Dl_switch.Swift.detection) ->
        B.write_option (fun b v -> B.write_varint b v) b d.voltage;
        B.write_option (fun b v -> B.write_varint b v) b d.iddq)
      buf x.detection;
    B.write_varint buf x.vectors_applied;
    B.write_varint buf x.region_solves
  in
  let decode cur =
    let cache = detection_cache () in
    let detection = read_array_with (decode_detection cache) cur in
    let vectors_applied = B.read_varint cur in
    let region_solves = B.read_varint cur in
    { Dl_switch.Swift.detection; vectors_applied; region_solves }
  in
  { kind = "swift"; version = 1; encode; decode }

(* ----------------------------------------------------------- summary *)

type summary = {
  text : string;
  fit_r : float;
  fit_theta_max : float;
  fit_rmse : float;
  fit_rmse_log10 : bool;
  scale_factor : float;
}

let summary : summary Codec.t =
  let encode buf s =
    B.write_string buf s.text;
    B.write_float buf s.fit_r;
    B.write_float buf s.fit_theta_max;
    B.write_float buf s.fit_rmse;
    B.write_bool buf s.fit_rmse_log10;
    B.write_float buf s.scale_factor
  in
  let decode cur =
    let text = B.read_string cur in
    let fit_r = B.read_float cur in
    let fit_theta_max = B.read_float cur in
    let fit_rmse = B.read_float cur in
    let fit_rmse_log10 = B.read_bool cur in
    let scale_factor = B.read_float cur in
    { text; fit_r; fit_theta_max; fit_rmse; fit_rmse_log10; scale_factor }
  in
  { kind = "summary"; version = 1; encode; decode }

(* -------------------------------------------------------- ndet *)

type ndet_profile = {
  nd_drop_after : int;
  nd_counts : int array;
  nd_detections : int array;
  nd_vectors_applied : int;
  nd_gate_evaluations : int;
  nd_sim_stats : Dl_fault.Fault_sim.Stats.t;
}

let ndet_profile : ndet_profile Codec.t =
  let encode buf (p : ndet_profile) =
    B.write_varint buf p.nd_drop_after;
    B.write_array (fun b k -> B.write_varint b k) buf p.nd_counts;
    (* detection slots are >= -1: shift by one to stay in varint range *)
    B.write_array (fun b v -> B.write_varint b (v + 1)) buf p.nd_detections;
    B.write_varint buf p.nd_vectors_applied;
    B.write_varint buf p.nd_gate_evaluations;
    write_sim_stats buf p.nd_sim_stats
  in
  let decode cur : ndet_profile =
    let nd_drop_after = B.read_varint cur in
    let nd_counts = B.read_array B.read_varint cur in
    let nd_detections = B.read_array (fun c -> B.read_varint c - 1) cur in
    let nd_vectors_applied = B.read_varint cur in
    let nd_gate_evaluations = B.read_varint cur in
    let nd_sim_stats = read_sim_stats cur in
    if Array.length nd_detections <> Array.length nd_counts * nd_drop_after
    then raise (B.Corrupt "ndet-profile detections length mismatch");
    { nd_drop_after; nd_counts; nd_detections; nd_vectors_applied;
      nd_gate_evaluations; nd_sim_stats }
  in
  { kind = "ndet-profile"; version = 1; encode; decode }

let ndet_atpg : Dl_ndet.Atpg_n.result Codec.t =
  let encode buf (a : Dl_ndet.Atpg_n.result) =
    encode_patterns buf a.vectors;
    B.write_array (fun b k -> B.write_varint b k) buf a.counts;
    let s = a.stats in
    B.write_varint buf s.n;
    B.write_varint buf s.total_faults;
    B.write_varint buf s.untestable;
    B.write_varint buf s.aborted;
    B.write_varint buf s.under_quota;
    B.write_varint buf s.random_vectors;
    B.write_varint buf s.topup_vectors;
    B.write_varint buf s.final_vectors;
    B.write_array encode_stuck buf a.untestable_faults;
    B.write_array encode_stuck buf a.aborted_faults
  in
  let decode cur : Dl_ndet.Atpg_n.result =
    let vectors = decode_patterns cur in
    let counts = B.read_array B.read_varint cur in
    let n = B.read_varint cur in
    let total_faults = B.read_varint cur in
    let untestable = B.read_varint cur in
    let aborted = B.read_varint cur in
    let under_quota = B.read_varint cur in
    let random_vectors = B.read_varint cur in
    let topup_vectors = B.read_varint cur in
    let final_vectors = B.read_varint cur in
    let untestable_faults = B.read_array decode_stuck cur in
    let aborted_faults = B.read_array decode_stuck cur in
    {
      vectors;
      counts;
      stats =
        {
          n;
          total_faults;
          untestable;
          aborted;
          under_quota;
          random_vectors;
          topup_vectors;
          final_vectors;
        };
      untestable_faults;
      aborted_faults;
    }
  in
  { kind = "ndet-atpg"; version = 1; encode; decode }

let defect_stats_fingerprint na_stats =
  let buf = Buffer.create 256 in
  List.iter
    (fun cls ->
      Buffer.add_string buf (Defect_stats.class_name cls);
      Buffer.add_char buf '=';
      Buffer.add_string buf (Printf.sprintf "%h" (Defect_stats.density na_stats cls));
      Buffer.add_char buf '/';
      Buffer.add_string buf (Printf.sprintf "%h" (Defect_stats.x0 na_stats cls));
      Buffer.add_char buf '\n')
    (Defect_stats.classes na_stats);
  Codec.key_of_string (Buffer.contents buf)
