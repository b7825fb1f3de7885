(* Flat compiled form of a circuit: every per-node datum lives in a dense int
   array so the simulation hot loops touch no heap blocks besides the arrays
   themselves.  Fanin and fanout adjacency use CSR layout (concatenated index
   arrays plus an offsets array with a final sentinel), node values live in an
   int64 bigarray so reads and writes stay unboxed on the native compiler. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  circuit : Circuit.t;
  n : int;
  opcode : int array;
  level : int array;
  fanin_off : int array;
  fanin : int array;
  fanout_off : int array;
  fanout : int array;
  inputs : int array;
  outputs : int array;
  gate_order : int array;
  n_levels : int;
  level_off : int array;
  ffr_stem : int array;
  ffr_index : int array;
  ffr_stems : int array;
  n_ffrs : int;
}

let alloc len =
  let buf = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout len in
  Bigarray.Array1.fill buf 0L;
  buf

let of_circuit (c : Circuit.t) =
  let n = Array.length c.nodes in
  let opcode = Array.make n 0 in
  let fanin_off = Array.make (n + 1) 0 in
  let total_fanin = ref 0 in
  for id = 0 to n - 1 do
    let nd = c.nodes.(id) in
    let arity = Array.length nd.fanin in
    (* The one-time arity validation the per-eval [Gate.check] used to do:
       after this, every kernel consumer may evaluate unchecked. *)
    if not (Gate.arity_ok nd.kind arity) then
      raise
        (Circuit.Malformed
           (Printf.sprintf "Kernel.of_circuit: %s node %s has %d inputs"
              (Gate.to_string nd.kind) nd.name arity));
    opcode.(id) <- Gate.opcode nd.kind;
    total_fanin := !total_fanin + arity
  done;
  let fanin = Array.make (max 1 !total_fanin) 0 in
  let pos = ref 0 in
  for id = 0 to n - 1 do
    fanin_off.(id) <- !pos;
    let src = c.nodes.(id).fanin in
    Array.blit src 0 fanin !pos (Array.length src);
    pos := !pos + Array.length src
  done;
  fanin_off.(n) <- !pos;
  let fanout_off = Array.make (n + 1) 0 in
  let total_fanout = Array.fold_left (fun a fo -> a + Array.length fo) 0 c.fanouts in
  let fanout = Array.make (max 1 total_fanout) 0 in
  let pos = ref 0 in
  for id = 0 to n - 1 do
    fanout_off.(id) <- !pos;
    let dst = c.fanouts.(id) in
    Array.blit dst 0 fanout !pos (Array.length dst);
    pos := !pos + Array.length dst
  done;
  fanout_off.(n) <- !pos;
  let n_levels = 1 + Array.fold_left max 0 c.levels in
  let level_off = Array.make (n_levels + 1) 0 in
  Array.iter (fun l -> level_off.(l + 1) <- level_off.(l + 1) + 1) c.levels;
  for l = 1 to n_levels do
    level_off.(l) <- level_off.(l) + level_off.(l - 1)
  done;
  let gate_order =
    Array.of_seq
      (Seq.filter
         (fun id -> c.nodes.(id).kind <> Gate.Input)
         (Array.to_seq c.topo_order))
  in
  (* Fanout-free-region partition.  A node is an FFR stem iff its signal
     branches (fanout count <> 1 — this includes dead nodes, and a reader
     using the same signal on two pins, which appears twice in [fanout]) or
     it is a primary output; every other node has exactly one reader and
     belongs to that reader's region.  Reverse topological order resolves
     each node's unique reader before the node itself, so the chain
     collapses in one pass. *)
  let is_po = Array.make n false in
  Array.iter (fun o -> is_po.(o) <- true) c.outputs;
  let ffr_stem = Array.make n (-1) in
  for i = n - 1 downto 0 do
    let id = c.topo_order.(i) in
    let deg = fanout_off.(id + 1) - fanout_off.(id) in
    if deg <> 1 || is_po.(id) then ffr_stem.(id) <- id
    else ffr_stem.(id) <- ffr_stem.(fanout.(fanout_off.(id)))
  done;
  let n_ffrs = ref 0 in
  for id = 0 to n - 1 do
    if ffr_stem.(id) = id then incr n_ffrs
  done;
  let ffr_stems = Array.make (max 1 !n_ffrs) 0 in
  let stem_slot = Array.make n (-1) in
  let next = ref 0 in
  for id = 0 to n - 1 do
    if ffr_stem.(id) = id then begin
      ffr_stems.(!next) <- id;
      stem_slot.(id) <- !next;
      incr next
    end
  done;
  let ffr_index = Array.map (fun stem -> stem_slot.(stem)) ffr_stem in
  {
    circuit = c;
    n;
    opcode;
    level = c.levels;
    fanin_off;
    fanin;
    fanout_off;
    fanout;
    inputs = c.inputs;
    outputs = c.outputs;
    gate_order;
    n_levels;
    level_off;
    ffr_stem;
    ffr_index;
    ffr_stems;
    n_ffrs = !n_ffrs;
  }

(* --- 4-word (256-pattern) evaluation ----------------------------------------

   Node [i]'s four words live at [4i .. 4i+3]; word [w] carries patterns
   [64w .. 64w+63] of the block.  Each CSR fanin fetch is amortized over
   256 patterns: the index arithmetic and opcode dispatch run once per
   sub-word group of four, and the inner [w] loops carry only unboxed
   bigarray reads/writes.  Specialized unary and binary paths cover the
   overwhelming majority of ISCAS gates; the n-ary fallback folds with a
   local ref, which the native compiler keeps as an unboxed mutable. *)

let create_words4 t = alloc (4 * t.n)

let[@inline] eval4_unsafe t (buf : words) id =
  let off = Array.unsafe_get t.fanin_off id in
  let len = Array.unsafe_get t.fanin_off (id + 1) - off in
  let op = Array.unsafe_get t.opcode id in
  let o4 = id * 4 in
  if len = 2 then begin
    let a4 = Array.unsafe_get t.fanin off * 4 in
    let b4 = Array.unsafe_get t.fanin (off + 1) * 4 in
    for w = 0 to 3 do
      let a = Bigarray.Array1.unsafe_get buf (a4 + w) in
      let b = Bigarray.Array1.unsafe_get buf (b4 + w) in
      let v =
        if op = Gate.op_and then Int64.logand a b
        else if op = Gate.op_nand then Int64.lognot (Int64.logand a b)
        else if op = Gate.op_or then Int64.logor a b
        else if op = Gate.op_nor then Int64.lognot (Int64.logor a b)
        else if op = Gate.op_xor then Int64.logxor a b
        else Int64.lognot (Int64.logxor a b)
      in
      Bigarray.Array1.unsafe_set buf (o4 + w) v
    done
  end
  else if len = 1 then begin
    let a4 = Array.unsafe_get t.fanin off * 4 in
    let inv = Gate.op_inverts op in
    for w = 0 to 3 do
      let a = Bigarray.Array1.unsafe_get buf (a4 + w) in
      Bigarray.Array1.unsafe_set buf (o4 + w) (if inv then Int64.lognot a else a)
    done
  end
  else if len = 0 then invalid_arg "Kernel.eval4_unsafe: node has no fanin"
  else begin
    let last = off + len - 1 in
    for w = 0 to 3 do
      let s0 = Array.unsafe_get t.fanin off * 4 in
      if op <= Gate.op_nand then begin
        let acc = ref (Bigarray.Array1.unsafe_get buf (s0 + w)) in
        for k = off + 1 to last do
          acc :=
            Int64.logand !acc
              (Bigarray.Array1.unsafe_get buf ((Array.unsafe_get t.fanin k * 4) + w))
        done;
        Bigarray.Array1.unsafe_set buf (o4 + w)
          (if op = Gate.op_nand then Int64.lognot !acc else !acc)
      end
      else if op <= Gate.op_nor then begin
        let acc = ref (Bigarray.Array1.unsafe_get buf (s0 + w)) in
        for k = off + 1 to last do
          acc :=
            Int64.logor !acc
              (Bigarray.Array1.unsafe_get buf ((Array.unsafe_get t.fanin k * 4) + w))
        done;
        Bigarray.Array1.unsafe_set buf (o4 + w)
          (if op = Gate.op_nor then Int64.lognot !acc else !acc)
      end
      else begin
        let acc = ref (Bigarray.Array1.unsafe_get buf (s0 + w)) in
        for k = off + 1 to last do
          acc :=
            Int64.logxor !acc
              (Bigarray.Array1.unsafe_get buf ((Array.unsafe_get t.fanin k * 4) + w))
        done;
        Bigarray.Array1.unsafe_set buf (o4 + w)
          (if op = Gate.op_xnor then Int64.lognot !acc else !acc)
      end
    done
  end

let check_dim4 fn t buf =
  if Bigarray.Array1.dim buf < 4 * t.n then
    invalid_arg (fn ^ ": values buffer shorter than 4x node count")

let run_into4 t buf =
  check_dim4 "Kernel.run_into4" t buf;
  let order = t.gate_order in
  for i = 0 to Array.length order - 1 do
    eval4_unsafe t buf (Array.unsafe_get order i)
  done
