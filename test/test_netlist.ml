open Dl_netlist

(* --- Gate ----------------------------------------------------------------- *)

let test_gate_eval_truth_tables () =
  let check kind inputs expected =
    Alcotest.(check bool)
      (Gate.to_string kind)
      expected
      (Gate.eval kind (Array.of_list inputs))
  in
  check Gate.And [ true; true ] true;
  check Gate.And [ true; false ] false;
  check Gate.Nand [ true; true ] false;
  check Gate.Or [ false; false ] false;
  check Gate.Nor [ false; false ] true;
  check Gate.Xor [ true; false ] true;
  check Gate.Xor [ true; true ] false;
  check Gate.Xnor [ true; true ] true;
  check Gate.Not [ true ] false;
  check Gate.Buf [ true ] true

let test_gate_eval_word_matches_eval () =
  let rng = Dl_util.Rng.create 5 in
  List.iter
    (fun kind ->
      for arity = if kind = Gate.Buf || kind = Gate.Not then 1 else 1 to
          (if kind = Gate.Buf || kind = Gate.Not then 1 else 4) do
        let words = Array.init arity (fun _ -> Dl_util.Rng.word rng) in
        let wres = Gate.eval_word kind words in
        for bit = 0 to 63 do
          let bits =
            Array.map
              (fun w -> Int64.logand (Int64.shift_right_logical w bit) 1L = 1L)
              words
          in
          let expect = Gate.eval kind bits in
          let got = Int64.logand (Int64.shift_right_logical wres bit) 1L = 1L in
          if got <> expect then
            Alcotest.failf "%s arity %d bit %d mismatch" (Gate.to_string kind) arity bit
        done
      done)
    Gate.all_logic

let test_gate_of_string () =
  Alcotest.(check bool) "nand" true (Gate.of_string "nand" = Some Gate.Nand);
  Alcotest.(check bool) "BUFF alias" true (Gate.of_string "BUFF" = Some Gate.Buf);
  Alcotest.(check bool) "INV alias" true (Gate.of_string "inv" = Some Gate.Not);
  Alcotest.(check bool) "unknown" true (Gate.of_string "FOO" = None)

let test_gate_controlling () =
  Alcotest.(check bool) "and ctrl" true (Gate.controlling_value Gate.And = Some false);
  Alcotest.(check bool) "nor ctrl" true (Gate.controlling_value Gate.Nor = Some true);
  Alcotest.(check bool) "xor none" true (Gate.controlling_value Gate.Xor = None);
  Alcotest.(check bool) "nand resp" true (Gate.controlled_response Gate.Nand = true)

let test_gate_arity_violations () =
  Alcotest.check_raises "not with 2 inputs"
    (Invalid_argument "Gate.eval: NOT cannot take 2 inputs") (fun () ->
      ignore (Gate.eval_checked Gate.Not [| true; false |]))

let test_gate_opcodes () =
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Gate.to_string kind ^ " opcode roundtrip")
        true
        (Gate.kind_of_opcode (Gate.opcode kind) = kind);
      Alcotest.(check bool)
        (Gate.to_string kind ^ " op_inverts")
        (Gate.inversion kind)
        (Gate.op_inverts (Gate.opcode kind)))
    (Gate.Input :: Gate.all_logic);
  Alcotest.check_raises "bad opcode" (Invalid_argument "Gate.kind_of_opcode")
    (fun () -> ignore (Gate.kind_of_opcode 99))

(* --- Kernel lowering -------------------------------------------------------- *)

let check_kernel_structure c =
  let k = Kernel.of_circuit c in
  let n = Circuit.node_count c in
  Alcotest.(check int) "node count" n k.Kernel.n;
  Alcotest.(check int) "fanin_off length" (n + 1) (Array.length k.Kernel.fanin_off);
  Alcotest.(check int) "fanout_off length" (n + 1)
    (Array.length k.Kernel.fanout_off);
  Alcotest.(check int) "fanin_off start" 0 k.Kernel.fanin_off.(0);
  Alcotest.(check int) "fanin total" (Array.length k.Kernel.fanin)
    k.Kernel.fanin_off.(n);
  Array.iter
    (fun (nd : Circuit.node) ->
      let i = nd.id in
      (* CSR slice i reproduces the node's fanin in pin order *)
      let lo = k.Kernel.fanin_off.(i) and hi = k.Kernel.fanin_off.(i + 1) in
      Alcotest.(check (array int))
        (Printf.sprintf "fanin of node %d" i)
        nd.fanin
        (Array.sub k.Kernel.fanin lo (hi - lo));
      let flo = k.Kernel.fanout_off.(i) and fhi = k.Kernel.fanout_off.(i + 1) in
      Alcotest.(check (array int))
        (Printf.sprintf "fanout of node %d" i)
        c.Circuit.fanouts.(i)
        (Array.sub k.Kernel.fanout flo (fhi - flo));
      Alcotest.(check int)
        (Printf.sprintf "opcode of node %d" i)
        (Gate.opcode nd.kind) k.Kernel.opcode.(i);
      Alcotest.(check int)
        (Printf.sprintf "level of node %d" i)
        c.Circuit.levels.(i) k.Kernel.level.(i))
    c.Circuit.nodes;
  (* gate_order: every non-input exactly once, fanins before readers *)
  Alcotest.(check int) "gate_order size"
    (n - Circuit.input_count c)
    (Array.length k.Kernel.gate_order);
  let seen = Array.make n false in
  Array.iter (fun i -> seen.(i) <- true) k.Kernel.inputs;
  Array.iter
    (fun i ->
      Alcotest.(check bool) "not an input / not repeated" false seen.(i);
      Array.iter
        (fun src -> Alcotest.(check bool) "fanin already evaluated" true seen.(src))
        c.Circuit.nodes.(i).Circuit.fanin;
      seen.(i) <- true)
    k.Kernel.gate_order;
  (* level histogram CSR covers every node *)
  Alcotest.(check int) "n_levels" (Circuit.depth c + 1) k.Kernel.n_levels;
  Alcotest.(check int) "level_off total" n k.Kernel.level_off.(k.Kernel.n_levels);
  let hist = Array.make k.Kernel.n_levels 0 in
  Array.iter (fun l -> hist.(l) <- hist.(l) + 1) k.Kernel.level;
  for l = 0 to k.Kernel.n_levels - 1 do
    Alcotest.(check int)
      (Printf.sprintf "level %d population" l)
      hist.(l)
      (k.Kernel.level_off.(l + 1) - k.Kernel.level_off.(l))
  done

let test_kernel_structure () =
  List.iter
    (fun (_, make) -> check_kernel_structure (make ()))
    Benchmarks.all

(* FFR partition invariants, on every benchmark circuit: stems are exactly
   the nodes with fanout count <> 1 or a PO flag, stems root themselves,
   interior nodes inherit their unique reader's stem, and the dense index
   is consistent with the ascending stem list. *)
let test_kernel_ffr_invariants () =
  List.iter
    (fun (name, make) ->
      let c = make () in
      let k = Kernel.of_circuit c in
      let n = k.Kernel.n in
      Alcotest.(check int)
        (name ^ ": stem list length")
        k.Kernel.n_ffrs
        (Array.length k.Kernel.ffr_stems);
      Array.iteri
        (fun si s ->
          if si > 0 && s <= k.Kernel.ffr_stems.(si - 1) then
            Alcotest.failf "%s: ffr_stems not strictly ascending at %d" name si;
          Alcotest.(check int)
            (Printf.sprintf "%s: stem %d roots itself" name s)
            s k.Kernel.ffr_stem.(s))
        k.Kernel.ffr_stems;
      let is_output = Array.make n false in
      Array.iter (fun o -> is_output.(o) <- true) k.Kernel.outputs;
      for i = 0 to n - 1 do
        let fan = k.Kernel.fanout_off.(i + 1) - k.Kernel.fanout_off.(i) in
        let should_be_stem = fan <> 1 || is_output.(i) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: node %d stem-ness" name i)
          should_be_stem
          (k.Kernel.ffr_stem.(i) = i);
        if not should_be_stem then
          (* interior node: the single reader is in the same region *)
          Alcotest.(check int)
            (Printf.sprintf "%s: node %d inherits reader's stem" name i)
            k.Kernel.ffr_stem.(k.Kernel.fanout.(k.Kernel.fanout_off.(i)))
            k.Kernel.ffr_stem.(i);
        (* dense index maps back to the node's stem *)
        let si = k.Kernel.ffr_index.(i) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: node %d index in range" name i)
          true
          (si >= 0 && si < k.Kernel.n_ffrs);
        Alcotest.(check int)
          (Printf.sprintf "%s: node %d index consistent" name i)
          k.Kernel.ffr_stem.(i)
          k.Kernel.ffr_stems.(si)
      done)
    Benchmarks.all

let test_kernel_rejects_malformed_arity () =
  (* of_circuit re-validates arity so the unchecked eval paths stay safe
     even if a Circuit.t was forged around Builder.finalize. *)
  let c = Benchmarks.c17 () in
  let k = Kernel.of_circuit c in
  Alcotest.(check bool) "c17 lowers" true (k.Kernel.n = Circuit.node_count c);
  Alcotest.check_raises "short buffer"
    (Invalid_argument
       "Kernel.run_into4: values buffer shorter than 4x node count")
    (fun () -> Kernel.run_into4 k (Kernel.alloc ((4 * k.Kernel.n) - 1)))

(* --- Circuit -------------------------------------------------------------- *)

let build_c17 () = Benchmarks.c17 ()

let test_circuit_counts () =
  let c = build_c17 () in
  Alcotest.(check int) "nodes" 11 (Circuit.node_count c);
  Alcotest.(check int) "inputs" 5 (Circuit.input_count c);
  Alcotest.(check int) "outputs" 2 (Circuit.output_count c);
  Alcotest.(check int) "gates" 6 (Circuit.gate_count c);
  Alcotest.(check int) "depth" 3 (Circuit.depth c)

let test_circuit_find () =
  let c = build_c17 () in
  let id = Circuit.find c "n10" in
  Alcotest.(check string) "roundtrip" "n10" (Circuit.name c id);
  Alcotest.(check bool) "missing" true (Circuit.find_opt c "nope" = None)

let test_circuit_fanout_consistency () =
  let c = build_c17 () in
  (* every fanin edge appears exactly once in the fanout lists *)
  Array.iter
    (fun (nd : Circuit.node) ->
      Array.iter
        (fun src ->
          let count =
            Array.fold_left
              (fun acc dst -> if dst = nd.id then acc + 1 else acc)
              0 c.fanouts.(src)
          in
          Alcotest.(check bool) "fanout edge present" true (count >= 1))
        nd.fanin)
    c.nodes

let test_circuit_levels_monotone () =
  let c = Benchmarks.c432s () in
  Array.iter
    (fun (nd : Circuit.node) ->
      Array.iter
        (fun src ->
          Alcotest.(check bool) "level strictly increases" true
            (c.levels.(src) < c.levels.(nd.id)))
        nd.fanin)
    c.nodes

let test_builder_duplicate_rejected () =
  let b = Circuit.Builder.create ~title:"dup" in
  Circuit.Builder.add_input b "a";
  Alcotest.(check bool) "raises" true
    (try
       Circuit.Builder.add_input b "a";
       false
     with Circuit.Malformed _ -> true)

let test_builder_cycle_rejected () =
  let b = Circuit.Builder.create ~title:"cyc" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b "x" Gate.And [ "a"; "y" ];
  Circuit.Builder.add_gate b "y" Gate.And [ "a"; "x" ];
  Circuit.Builder.add_output b "y";
  Alcotest.(check bool) "cycle detected" true
    (try
       ignore (Circuit.Builder.finalize b);
       false
     with Circuit.Malformed _ -> true)

let test_builder_dangling_rejected () =
  let b = Circuit.Builder.create ~title:"dangle" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b "x" Gate.Not [ "ghost" ];
  Circuit.Builder.add_output b "x";
  Alcotest.(check bool) "dangling detected" true
    (try
       ignore (Circuit.Builder.finalize b);
       false
     with Circuit.Malformed _ -> true)

let test_line_count () =
  let c = build_c17 () in
  (* 11 stems + 12 gate pins *)
  Alcotest.(check int) "lines" 23 (Circuit.line_count c)

(* --- Bench format ---------------------------------------------------------- *)

let test_bench_roundtrip () =
  List.iter
    (fun (name, make) ->
      let c = make () in
      let c' = Bench_format.parse_string ~title:c.Circuit.title (Bench_format.to_string c) in
      Alcotest.(check int) (name ^ " nodes") (Circuit.node_count c) (Circuit.node_count c');
      Alcotest.(check int) (name ^ " inputs") (Circuit.input_count c) (Circuit.input_count c');
      Alcotest.(check int) (name ^ " outputs") (Circuit.output_count c) (Circuit.output_count c');
      Alcotest.(check int) (name ^ " depth") (Circuit.depth c) (Circuit.depth c');
      (* behavioural equivalence on random vectors *)
      let rng = Dl_util.Rng.create 3 in
      for _ = 1 to 20 do
        let v = Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng) in
        Alcotest.(check (array bool))
          (name ^ " response")
          (Dl_logic.Sim2.output_bits c v)
          (Dl_logic.Sim2.output_bits c' v)
      done)
    Benchmarks.all

let test_bench_parse_errors () =
  let expect_error text =
    Alcotest.(check bool) "parse error" true
      (try
         ignore (Bench_format.parse_string text);
         false
       with Bench_format.Parse_error _ -> true)
  in
  expect_error "INPUT(a\n";
  expect_error "x = FROB(a)\n";
  expect_error "x = NAND()\n";
  expect_error "WIBBLE(a)\n"

let test_bench_comments_and_case () =
  let c =
    Bench_format.parse_string
      "# a comment\ninput(a)\nINPUT(b)\noutput(o)\no = nand(a, b) # trailing\n"
  in
  Alcotest.(check int) "nodes" 3 (Circuit.node_count c)

(* --- Generators ------------------------------------------------------------- *)

let test_ripple_adder_function () =
  let c = Generator.ripple_adder 4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      List.iter
        (fun cin ->
          let v =
            Array.init (Circuit.input_count c) (fun i ->
                let nm = Circuit.name c c.Circuit.inputs.(i) in
                if nm = "cin" then cin
                else
                  let which = nm.[0] and bit = int_of_string (String.sub nm 1 1) in
                  let value = if which = 'a' then a else b in
                  value lsr bit land 1 = 1)
          in
          let out = Dl_logic.Sim2.output_bits c v in
          (* outputs: s0..s3, cout in declaration order *)
          let total = a + b + if cin then 1 else 0 in
          Array.iteri
            (fun i o ->
              let nm = Circuit.name c c.Circuit.outputs.(i) in
              let expected =
                if nm = "cout" then total lsr 4 land 1 = 1
                else total lsr int_of_string (String.sub nm 1 1) land 1 = 1
              in
              Alcotest.(check bool) (Printf.sprintf "a=%d b=%d %s" a b nm) expected o)
            out)
        [ false; true ]
    done
  done

let test_parity_tree_function () =
  let c = Generator.parity_tree 8 in
  let rng = Dl_util.Rng.create 9 in
  for _ = 1 to 100 do
    let v = Array.init 8 (fun _ -> Dl_util.Rng.bool rng) in
    let expected = Array.fold_left (fun acc b -> if b then not acc else acc) false v in
    Alcotest.(check bool) "parity" expected (Dl_logic.Sim2.output_bits c v).(0)
  done

let test_comparator_function () =
  let c = Generator.equality_comparator 4 in
  let rng = Dl_util.Rng.create 17 in
  for _ = 1 to 100 do
    let xs = Array.init 4 (fun _ -> Dl_util.Rng.bool rng) in
    let ys = Array.init 4 (fun _ -> Dl_util.Rng.bool rng) in
    let v =
      Array.init (Circuit.input_count c) (fun i ->
          let nm = Circuit.name c c.Circuit.inputs.(i) in
          let bit = int_of_string (String.sub nm 1 1) in
          if nm.[0] = 'x' then xs.(bit) else ys.(bit))
    in
    Alcotest.(check bool) "equality" (xs = ys) (Dl_logic.Sim2.output_bits c v).(0)
  done

let test_mux_function () =
  let c = Generator.multiplexer 2 in
  for code = 0 to 3 do
    for data = 0 to 15 do
      let v =
        Array.init (Circuit.input_count c) (fun i ->
            let nm = Circuit.name c c.Circuit.inputs.(i) in
            if String.length nm >= 3 && String.sub nm 0 3 = "sel" then
              code lsr int_of_string (String.sub nm 3 1) land 1 = 1
            else data lsr int_of_string (String.sub nm 1 1) land 1 = 1)
      in
      Alcotest.(check bool)
        (Printf.sprintf "mux sel=%d" code)
        (data lsr code land 1 = 1)
        (Dl_logic.Sim2.output_bits c v).(0)
    done
  done

let test_decoder_function () =
  let c = Generator.decoder 3 in
  for code = 0 to 7 do
    let v = Array.init 3 (fun i -> code lsr i land 1 = 1) in
    let out = Dl_logic.Sim2.output_bits c v in
    Array.iteri
      (fun i o ->
        let nm = Circuit.name c c.Circuit.outputs.(i) in
        let line = int_of_string (String.sub nm 1 (String.length nm - 1)) in
        Alcotest.(check bool) "one-hot" (line = code) o)
      out
  done

let test_random_generator_valid () =
  for seed = 1 to 5 do
    let c =
      Generator.random ~seed ~inputs:8 ~outputs:3
        ~profile:[ (Gate.Nand, 20); (Gate.Not, 5); (Gate.Xor, 4) ]
        ()
    in
    Circuit.validate c;
    Alcotest.(check int) "outputs" 3 (Circuit.output_count c)
  done

let test_priority_controller_interface () =
  let c = Generator.priority_controller ~slices:9 () in
  Circuit.validate c;
  Alcotest.(check int) "36 inputs" 36 (Circuit.input_count c);
  Alcotest.(check int) "7 outputs" 7 (Circuit.output_count c);
  Alcotest.(check bool) "c432-scale" true (Circuit.gate_count c > 100)

(* --- Transform ---------------------------------------------------------------- *)

let test_decompose_wide_gates () =
  let b = Circuit.Builder.create ~title:"wide" in
  for i = 0 to 8 do
    Circuit.Builder.add_input b (Printf.sprintf "i%d" i)
  done;
  let names = List.init 9 (Printf.sprintf "i%d") in
  Circuit.Builder.add_gate b "w_nand" Gate.Nand names;
  Circuit.Builder.add_gate b "w_xor" Gate.Xor names;
  Circuit.Builder.add_gate b "w_nor" Gate.Nor names;
  Circuit.Builder.add_output b "w_nand";
  Circuit.Builder.add_output b "w_xor";
  Circuit.Builder.add_output b "w_nor";
  let c = Circuit.Builder.finalize b in
  Alcotest.(check bool) "not mappable" false (Transform.is_cell_mappable c);
  let c' = Transform.decompose_for_cells c in
  Alcotest.(check bool) "mappable after" true (Transform.is_cell_mappable c');
  (* behaviour preserved *)
  let rng = Dl_util.Rng.create 23 in
  for _ = 1 to 200 do
    let v = Array.init 9 (fun _ -> Dl_util.Rng.bool rng) in
    Alcotest.(check (array bool)) "equivalent" (Dl_logic.Sim2.output_bits c v)
      (Dl_logic.Sim2.output_bits c' v)
  done

(* The cell library has no one-input AND/NAND/OR/NOR/XOR/XNOR cells: such
   gates become buffers or inverters, and the result flattens. *)
let test_decompose_single_input_gates () =
  let b = Circuit.Builder.create ~title:"unary" in
  Circuit.Builder.add_input b "a";
  let kinds = Gate.[ And; Nand; Or; Nor; Xor; Xnor ] in
  List.iter
    (fun k ->
      let name = "g_" ^ Gate.to_string k in
      Circuit.Builder.add_gate b name k [ "a" ];
      Circuit.Builder.add_output b name)
    kinds;
  let c = Circuit.Builder.finalize b in
  Alcotest.(check bool) "not mappable" false (Transform.is_cell_mappable c);
  let c' = Transform.decompose_for_cells c in
  Alcotest.(check bool) "mappable after" true (Transform.is_cell_mappable c');
  ignore (Dl_cell.Mapping.flatten c');
  List.iter
    (fun a ->
      Alcotest.(check (array bool)) "equivalent" (Dl_logic.Sim2.output_bits c [| a |])
        (Dl_logic.Sim2.output_bits c' [| a |]))
    [ false; true ]

let test_decompose_identity_when_mappable () =
  let c = Benchmarks.c17 () in
  let c' = Transform.decompose_for_cells c in
  Alcotest.(check int) "same size" (Circuit.node_count c) (Circuit.node_count c')

(* --- generator error paths ------------------------------------------------ *)

let test_generator_input_in_profile_rejected () =
  Alcotest.check_raises "Input kind in profile"
    (Invalid_argument
       "Generator.random: Input is not a gate kind; remove it from the \
        profile") (fun () ->
      ignore
        (Generator.random ~seed:1 ~inputs:3 ~outputs:1
           ~profile:[ (Gate.Input, 2); (Gate.Nand, 4) ]
           ()));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Generator.random: negative count") (fun () ->
      ignore
        (Generator.random ~seed:1 ~inputs:3 ~outputs:1
           ~profile:[ (Gate.Nand, -1) ]
           ()))

let test_reduction_degenerate_widths () =
  (* Zero-width trees are diagnosed with the tree's own name... *)
  Alcotest.check_raises "parity_tree 0"
    (Invalid_argument "Generator.par: cannot reduce zero inputs") (fun () ->
      ignore (Generator.parity_tree 0));
  Alcotest.check_raises "parity_tree negative"
    (Invalid_argument "Generator.par: negative width -3") (fun () ->
      ignore (Generator.parity_tree (-3)));
  (* ...while a 1-wide tree degenerates to a pass-through. *)
  let c = Generator.parity_tree 1 in
  Circuit.validate c;
  Alcotest.(check bool) "parity of one bit" true
    ((Dl_logic.Sim2.output_bits c [| true |]).(0));
  let cmp = Generator.equality_comparator 1 in
  Circuit.validate cmp;
  Alcotest.(check bool) "x = y" true
    ((Dl_logic.Sim2.output_bits cmp [| true; true |]).(0));
  Alcotest.(check bool) "x <> y" false
    ((Dl_logic.Sim2.output_bits cmp [| true; false |]).(0))

let test_array_multiplier_width_guard () =
  Alcotest.check_raises "array_multiplier 1"
    (Invalid_argument "Generator.array_multiplier: need 1 < n <= 8") (fun () ->
      ignore (Generator.array_multiplier 1));
  Alcotest.check_raises "array_multiplier 9"
    (Invalid_argument "Generator.array_multiplier: need 1 < n <= 8") (fun () ->
      ignore (Generator.array_multiplier 9))

(* --- shrinker hooks -------------------------------------------------------- *)

(* i0 -> inv -> buf -> out, plus a side NAND kept alive by its own output. *)
let surgery_circuit () =
  let b = Circuit.Builder.create ~title:"surgery" in
  Circuit.Builder.add_input b "i0";
  Circuit.Builder.add_input b "i1";
  Circuit.Builder.add_gate b "inv" Gate.Not [ "i0" ];
  Circuit.Builder.add_gate b "buf" Gate.Buf [ "inv" ];
  Circuit.Builder.add_gate b "side" Gate.Nand [ "i0"; "i1" ];
  Circuit.Builder.add_output b "buf";
  Circuit.Builder.add_output b "side";
  Circuit.Builder.finalize b

let test_eliminate_node () =
  let c = surgery_circuit () in
  let id = Circuit.find c "inv" in
  let c', map = Transform.eliminate_node c id in
  Circuit.validate c';
  Alcotest.(check int) "one gate fewer" (Circuit.gate_count c - 1)
    (Circuit.gate_count c');
  Alcotest.(check bool) "eliminated node unmapped" true (map.(id) = None);
  (* Survivors map by name; inputs survive by construction. *)
  Array.iter
    (fun old_id ->
      if old_id <> id then
        match map.(old_id) with
        | Some new_id ->
            Alcotest.(check string) "name preserved" (Circuit.name c old_id)
              (Circuit.name c' new_id)
        | None -> Alcotest.failf "node %s lost" (Circuit.name c old_id))
    (Array.init (Circuit.node_count c) Fun.id);
  (* The victim's readers now read its first fanin: buf computes i0. *)
  Alcotest.(check bool) "buf now follows i0" true
    ((Dl_logic.Sim2.output_bits c' [| true; false |]).(0));
  Alcotest.check_raises "eliminating a PI"
    (Invalid_argument "Transform.eliminate_node: \"i0\" is a primary input")
    (fun () -> ignore (Transform.eliminate_node c (Circuit.find c "i0")));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Transform.eliminate_node: node id 99 out of range")
    (fun () -> ignore (Transform.eliminate_node c 99))

let test_eliminate_output_node () =
  (* Eliminating a node that drives a PO redirects the output to the
     node's first fanin rather than leaving a dangling output. *)
  let c = surgery_circuit () in
  let c', map = Transform.eliminate_node c (Circuit.find c "buf") in
  Circuit.validate c';
  Alcotest.(check int) "still two outputs" 2 (Circuit.output_count c');
  Alcotest.(check bool) "buf gone" true (map.(Circuit.find c "buf") = None);
  (* "inv" now drives the first output directly. *)
  Alcotest.(check bool) "output follows inv" false
    ((Dl_logic.Sim2.output_bits c' [| true; true |]).(0))

let test_prune_dead () =
  let b = Circuit.Builder.create ~title:"deadwood" in
  Circuit.Builder.add_input b "i0";
  Circuit.Builder.add_input b "i1";
  Circuit.Builder.add_gate b "live" Gate.And [ "i0"; "i1" ];
  Circuit.Builder.add_gate b "dead1" Gate.Nor [ "i0"; "i1" ];
  Circuit.Builder.add_gate b "dead2" Gate.Not [ "dead1" ];
  Circuit.Builder.add_output b "live";
  let c = Circuit.Builder.finalize b in
  let c', map = Transform.prune_dead c in
  Circuit.validate c';
  Alcotest.(check int) "dead cone removed" 1 (Circuit.gate_count c');
  Alcotest.(check bool) "dead1 unmapped" true
    (map.(Circuit.find c "dead1") = None);
  Alcotest.(check bool) "dead2 unmapped" true
    (map.(Circuit.find c "dead2") = None);
  Alcotest.(check bool) "inputs kept" true
    (Circuit.input_count c' = 2 && map.(Circuit.find c "i0") <> None);
  (* Function on the surviving outputs is untouched. *)
  let rng = Dl_util.Rng.create 3 in
  for _ = 1 to 50 do
    let v = Array.init 2 (fun _ -> Dl_util.Rng.bool rng) in
    Alcotest.(check (array bool)) "function preserved"
      (Dl_logic.Sim2.output_bits c v)
      (Dl_logic.Sim2.output_bits c' v)
  done;
  (* Idempotent on an already-live circuit. *)
  let c'', _ = Transform.prune_dead c' in
  Alcotest.(check int) "fixpoint" (Circuit.node_count c')
    (Circuit.node_count c'')

(* --- qcheck ---------------------------------------------------------------------- *)

let prop_generator_deterministic =
  QCheck.Test.make ~name:"random generator deterministic per seed" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let make () =
        Generator.random ~seed ~inputs:6 ~outputs:2
          ~profile:[ (Gate.Nand, 10); (Gate.Xor, 3) ]
          ()
      in
      let a = make () and b = make () in
      Bench_format.to_string a = Bench_format.to_string b)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"bench roundtrip on random circuits" ~count:25
    QCheck.(int_range 1 500)
    (fun seed ->
      let c =
        Generator.random ~seed ~inputs:5 ~outputs:2
          ~profile:[ (Gate.Nor, 8); (Gate.Not, 3); (Gate.And, 4) ]
          ()
      in
      let c' = Bench_format.parse_string (Bench_format.to_string c) in
      let rng = Dl_util.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 10 do
        let v = Array.init 5 (fun _ -> Dl_util.Rng.bool rng) in
        if Dl_logic.Sim2.output_bits c v <> Dl_logic.Sim2.output_bits c' v then
          ok := false
      done;
      !ok)

(* --- Generator.Family ------------------------------------------------------ *)

let test_family_registry () =
  let names = Generator.Family.names () in
  Alcotest.(check bool) "at least 6 classes" true (List.length names >= 6);
  List.iter
    (fun n ->
      match Generator.Family.by_name n with
      | Some f ->
          Alcotest.(check string) "registered under its own name" n
            f.Generator.Family.name
      | None -> Alcotest.failf "class %s not resolvable" n)
    names;
  Alcotest.(check bool) "unknown class is None" true
    (Generator.Family.by_name "no-such-family" = None);
  (match Generator.Family.build_by_name "no-such-family" ~seed:1 ~gates:20 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown class should raise Invalid_argument");
  match Generator.Family.build_by_name "mixed" ~seed:1 ~gates:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gates < 2 should raise Invalid_argument"

let test_family_builds_valid_and_deterministic () =
  List.iter
    (fun (f : Generator.Family.t) ->
      List.iter
        (fun gates ->
          let a = Generator.Family.build f ~seed:3 ~gates in
          Circuit.validate a;
          Alcotest.(check bool)
            (f.Generator.Family.name ^ " has outputs")
            true
            (Circuit.output_count a >= 1);
          Alcotest.(check bool)
            (f.Generator.Family.name ^ " at least requested gates")
            true
            (Circuit.gate_count a >= gates);
          let b = Generator.Family.build f ~seed:3 ~gates in
          Alcotest.(check string)
            (f.Generator.Family.name ^ " deterministic per seed")
            (Bench_format.to_string a) (Bench_format.to_string b);
          let c = Generator.Family.build f ~seed:4 ~gates in
          Alcotest.(check bool)
            (f.Generator.Family.name ^ " seed matters")
            false
            (Bench_format.to_string a = Bench_format.to_string c))
        [ 12; 60 ])
    Generator.Family.all

let test_family_xor_heavy_is_xor_rich () =
  let c = Generator.Family.build_by_name "xor-heavy" ~seed:9 ~gates:120 in
  let mix = Circuit.gate_mix c in
  let count k = Option.value ~default:0 (List.assoc_opt k mix) in
  let xorish = count Gate.Xor + count Gate.Xnor in
  Alcotest.(check bool) "at least 30% XOR/XNOR" true
    (float_of_int xorish >= 0.3 *. float_of_int (Circuit.gate_count c))

let test_family_simulates () =
  (* Each family's output is a live circuit, not just a well-formed one:
     two-valued simulation runs, and the outputs are not constant over a
     random vector sample (single-bit sensitization would be too strict
     for the deep NAND chains of "deep-narrow"). *)
  let rng = Dl_util.Rng.create 17 in
  List.iter
    (fun (f : Generator.Family.t) ->
      let c = Generator.Family.build f ~seed:5 ~gates:40 in
      let n = Circuit.input_count c in
      let sample () =
        Dl_logic.Sim2.output_bits c
          (Array.init n (fun _ -> Dl_util.Rng.bool rng))
      in
      let base = sample () in
      let differs = ref false in
      for _ = 1 to 256 do
        if sample () <> base then differs := true
      done;
      Alcotest.(check bool)
        (f.Generator.Family.name ^ " outputs vary across vectors")
        true !differs)
    Generator.Family.all

(* --- ISCAS-85 style reconstructions (c499s, c880s) ------------------------ *)

(* Evaluate a circuit with the named inputs set to true and every other
   input false; returns the output bit for a named output. *)
let outputs_for c high =
  let v =
    Array.init (Circuit.input_count c) (fun i ->
        List.mem (Circuit.name c c.Circuit.inputs.(i)) high)
  in
  Dl_logic.Sim2.output_bits c v

let out_bit c out name =
  let rec find i =
    if i = Array.length c.Circuit.outputs then
      Alcotest.failf "no output named %s" name
    else if Circuit.name c c.Circuit.outputs.(i) = name then out.(i)
    else find (i + 1)
  in
  find 0

let test_c499s_interface () =
  let c = Benchmarks.c499s () in
  Alcotest.(check int) "c499s inputs" 41 (Circuit.input_count c);
  Alcotest.(check int) "c499s outputs" 32 (Array.length c.Circuit.outputs);
  Alcotest.(check int) "c499s nodes" 121 (Array.length c.Circuit.nodes)

let test_c880s_interface () =
  let c = Benchmarks.c880s () in
  Alcotest.(check int) "c880s inputs" 60 (Circuit.input_count c);
  Alcotest.(check int) "c880s outputs" 26 (Array.length c.Circuit.outputs);
  Alcotest.(check int) "c880s nodes" 271 (Array.length c.Circuit.nodes)

(* Single-error correction: on the all-zero codeword, flipping any one
   input (data bit, check bit, or the shared [r] line) must decode back to
   all-zero data.  A double data error is beyond SEC and must surface. *)
let test_c499s_correction () =
  let c = Benchmarks.c499s () in
  let all_zero out = not (Array.exists Fun.id out) in
  Alcotest.(check bool) "clean zero word" true (all_zero (outputs_for c []));
  for i = 0 to Circuit.input_count c - 1 do
    let nm = Circuit.name c c.Circuit.inputs.(i) in
    if not (all_zero (outputs_for c [ nm ])) then
      Alcotest.failf "single error on %s was not corrected" nm
  done;
  Alcotest.(check bool)
    "double error detected (not silently corrected)" false
    (all_zero (outputs_for c [ "id1"; "id5" ]))

let test_c880s_alu_add () =
  let c = Benchmarks.c880s () in
  let bits prefix value =
    List.filter_map
      (fun i ->
        if value lsr i land 1 = 1 then Some (Printf.sprintf "%s%d" prefix i)
        else None)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let mask_all = bits "mask" 255 in
  List.iter
    (fun (a, b, cin) ->
      let high =
        bits "a" a @ bits "b" b @ mask_all @ if cin then [ "cin" ] else []
      in
      let out = outputs_for c high in
      let total = a + b + if cin then 1 else 0 in
      let y =
        List.fold_left
          (fun acc i ->
            acc lor ((if out_bit c out (Printf.sprintf "y%d" i) then 1 else 0)
                     lsl i))
          0
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      Alcotest.(check int) (Printf.sprintf "sum %d+%d" a b) (total land 255) y;
      Alcotest.(check bool)
        (Printf.sprintf "cout %d+%d" a b)
        (total > 255) (out_bit c out "cout");
      Alcotest.(check bool)
        (Printf.sprintf "zero flag %d+%d" a b)
        (total land 255 = 0)
        (out_bit c out "zero"))
    [ (0, 0, false); (1, 2, false); (255, 1, false); (170, 85, true);
      (200, 100, true); (255, 255, true) ]

let test_c880s_alu_logic_and_priority () =
  let c = Benchmarks.c880s () in
  let bits prefix value =
    List.filter_map
      (fun i ->
        if value lsr i land 1 = 1 then Some (Printf.sprintf "%s%d" prefix i)
        else None)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  (* op1,op0 = 0,1: bitwise AND of the selected operands *)
  let out =
    outputs_for c (bits "a" 0b11001100 @ bits "b" 0b10101010
                   @ bits "mask" 255 @ [ "op0" ])
  in
  let y =
    List.fold_left
      (fun acc i ->
        acc lor ((if out_bit c out (Printf.sprintf "y%d" i) then 1 else 0)
                 lsl i))
      0
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check int) "AND mode" (0b11001100 land 0b10101010) y;
  (* priority encoder: highest set request line wins *)
  let prio out =
    (if out_bit c out "prio2" then 4 else 0)
    + (if out_bit c out "prio1" then 2 else 0)
    + if out_bit c out "prio0" then 1 else 0
  in
  let out3 = outputs_for c [ "pr3" ] in
  Alcotest.(check bool) "valid" true (out_bit c out3 "valid");
  Alcotest.(check int) "pr3 alone" 3 (prio out3);
  let out63 = outputs_for c [ "pr6"; "pr3" ] in
  Alcotest.(check int) "pr6 beats pr3" 6 (prio out63);
  let out_none = outputs_for c [] in
  Alcotest.(check bool) "no request: invalid" false (out_bit c out_none "valid")

let test_c1355s_interface () =
  let c = Benchmarks.c1355s () in
  Alcotest.(check int) "c1355s inputs" 41 (Circuit.input_count c);
  Alcotest.(check int) "c1355s outputs" 32 (Array.length c.Circuit.outputs);
  Alcotest.(check int) "c1355s nodes" 577 (Array.length c.Circuit.nodes);
  (* the XOR expansion must leave a NAND-dominated netlist (the point of
     c1355 vs c499 in the ISCAS-85 suite) *)
  let nands =
    Array.fold_left
      (fun acc (nd : Circuit.node) ->
        if nd.kind = Gate.Nand then acc + 1 else acc)
      0 c.Circuit.nodes
  in
  Alcotest.(check bool)
    (Printf.sprintf "NAND-dominated (%d NANDs)" nands)
    true
    (nands * 2 > Array.length c.Circuit.nodes)

let test_c1355s_equals_c499s () =
  (* ISCAS-85 c1355 is functionally equivalent to c499; the
     reconstructions must be too.  Same input names in the same order, so
     vectors carry over by index. *)
  let a = Benchmarks.c499s () in
  let b = Benchmarks.c1355s () in
  let name_of c id = Circuit.name c id in
  Alcotest.(check (array string))
    "same input interface"
    (Array.map (name_of a) a.Circuit.inputs)
    (Array.map (name_of b) b.Circuit.inputs);
  Alcotest.(check (array string))
    "same output interface"
    (Array.map (name_of a) a.Circuit.outputs)
    (Array.map (name_of b) b.Circuit.outputs);
  let rng = Dl_util.Rng.create 1355 in
  for _ = 1 to 64 do
    let v =
      Array.init (Circuit.input_count a) (fun _ -> Dl_util.Rng.bool rng)
    in
    Alcotest.(check (array bool))
      "c1355s = c499s" (Dl_logic.Sim2.output_bits a v)
      (Dl_logic.Sim2.output_bits b v)
  done

let test_c1908s_interface () =
  let c = Benchmarks.c1908s () in
  Alcotest.(check int) "c1908s inputs" 33 (Circuit.input_count c);
  Alcotest.(check int) "c1908s outputs" 25 (Array.length c.Circuit.outputs);
  Alcotest.(check int) "c1908s nodes" 420 (Array.length c.Circuit.nodes)

let test_c1908s_secded () =
  let c = Benchmarks.c1908s () in
  let data_zero out =
    not
      (List.exists
         (fun i -> out_bit c out (Printf.sprintf "od%d" i))
         (List.init 16 Fun.id))
  in
  (* clean zero word: no error, quiet *)
  let out = outputs_for c [ "en" ] in
  Alcotest.(check bool) "clean data" true (data_zero out);
  Alcotest.(check bool) "clean quiet" true (out_bit c out "quiet");
  Alcotest.(check bool) "clean err" false (out_bit c out "err");
  (* any single data-bit error is corrected and flagged *)
  for k = 0 to 15 do
    let out = outputs_for c [ Printf.sprintf "id%d" k; "en" ] in
    if not (data_zero out) then
      Alcotest.failf "single error on id%d not corrected" k;
    Alcotest.(check bool) "single err flag" true (out_bit c out "err");
    Alcotest.(check bool) "single derr flag" false (out_bit c out "derr")
  done;
  (* correction is gated: with en low the flip passes through *)
  let out = outputs_for c [ "id3" ] in
  Alcotest.(check bool) "uncorrected without en" true (out_bit c out "od3");
  (* the inject bus (under sel0) exercises the same correction path *)
  let out = outputs_for c [ "inj5"; "sel0"; "en" ] in
  Alcotest.(check bool) "injected error corrected" true (data_zero out);
  Alcotest.(check bool) "injected err flag" true (out_bit c out "err");
  (* double data error: detected as uncorrectable, not silently fixed *)
  let out = outputs_for c [ "id2"; "id9"; "en" ] in
  Alcotest.(check bool) "double derr flag" true (out_bit c out "derr");
  Alcotest.(check bool) "double err flag" false (out_bit c out "err");
  (* a check-bit flip gives a power-of-two syndrome, which matches no
     codeword: the data bus must come through untouched *)
  for j = 0 to 4 do
    let out = outputs_for c [ Printf.sprintf "ic%d" j; "en" ] in
    if not (data_zero out) then
      Alcotest.failf "check-bit flip ic%d miscorrected data" j
  done

let test_c2670s_interface () =
  let c = Benchmarks.c2670s () in
  Alcotest.(check int) "c2670s inputs" 233 (Circuit.input_count c);
  Alcotest.(check int) "c2670s outputs" 140 (Array.length c.Circuit.outputs);
  Alcotest.(check int) "c2670s nodes" 1106 (Array.length c.Circuit.nodes);
  (* the XOR expansion must leave a NAND-dominated netlist, like the
     NAND-level ISCAS original *)
  let nands =
    Array.fold_left
      (fun acc (nd : Circuit.node) ->
        if nd.kind = Gate.Nand then acc + 1 else acc)
      0 c.Circuit.nodes
  in
  Alcotest.(check bool)
    (Printf.sprintf "NAND-dominated (%d NANDs)" nands)
    true
    (nands * 2 > Array.length c.Circuit.nodes)

let test_c2670s_alu () =
  let c = Benchmarks.c2670s () in
  let bits prefix width value =
    List.filter_map
      (fun i ->
        if value lsr i land 1 = 1 then Some (Printf.sprintf "%s%d" prefix i)
        else None)
      (List.init width Fun.id)
  in
  let word out prefix width =
    List.fold_left
      (fun acc i ->
        acc
        lor ((if out_bit c out (Printf.sprintf "%s%d" prefix i) then 1 else 0)
             lsl i))
      0 (List.init width Fun.id)
  in
  (* adder: s = a + b + cin over 12 bits, with carry-out and zero flag *)
  List.iter
    (fun (a, b, cin) ->
      let high = bits "a" 12 a @ bits "b" 12 b @ if cin then [ "cin" ] else [] in
      let out = outputs_for c high in
      let total = a + b + if cin then 1 else 0 in
      Alcotest.(check int)
        (Printf.sprintf "sum %d+%d" a b)
        (total land 0xfff) (word out "s" 12);
      Alcotest.(check bool)
        (Printf.sprintf "cout %d+%d" a b)
        (total > 0xfff) (out_bit c out "cout");
      Alcotest.(check bool)
        (Printf.sprintf "zero %d+%d" a b)
        (total land 0xfff = 0)
        (out_bit c out "zero"))
    [ (0, 0, false); (1, 2, false); (4095, 1, false); (2730, 1365, true);
      (4095, 4095, true) ]
  ;
  (* comparator of the sum against e, gated by cmp_en *)
  let cmp a e =
    let out = outputs_for c (bits "a" 12 a @ bits "e" 12 e @ [ "cmp_en" ]) in
    ( out_bit c out "eq", out_bit c out "gt", out_bit c out "lt" )
  in
  Alcotest.(check (triple bool bool bool)) "100 = 100" (true, false, false)
    (cmp 100 100);
  Alcotest.(check (triple bool bool bool)) "200 > 100" (false, true, false)
    (cmp 200 100);
  Alcotest.(check (triple bool bool bool)) "100 < 200" (false, false, true)
    (cmp 100 200);
  let ungated = outputs_for c (bits "a" 12 7 @ bits "e" 12 7) in
  Alcotest.(check bool) "eq gated off without cmp_en" false
    (out_bit c ungated "eq")

let test_c2670s_masks_and_control () =
  let c = Benchmarks.c2670s () in
  let bits prefix width value =
    List.filter_map
      (fun i ->
        if value lsr i land 1 = 1 then Some (Printf.sprintf "%s%d" prefix i)
        else None)
      (List.init width Fun.id)
  in
  (* mask arrays: g = m xor k bitwise; h rides on the even g bits *)
  let out = outputs_for c [ "m3"; "k3"; "m7"; "k9"; "p0"; "p3"; "m6" ] in
  Alcotest.(check bool) "g3 = m3 xor k3 (both high)" false
    (out_bit c out "g3");
  Alcotest.(check bool) "g7 = m7" true (out_bit c out "g7");
  Alcotest.(check bool) "g9 = k9" true (out_bit c out "g9");
  Alcotest.(check bool) "h0 = p0 (g0 low)" true (out_bit c out "h0");
  Alcotest.(check bool) "h3 = p3 xor g6" false (out_bit c out "h3");
  (* control decoder keyed into the slice parities: with the g bus all
     zero, par_t mirrors the decoded ctl value and nothing else *)
  List.iter
    (fun t ->
      let out = outputs_for c (bits "ctl" 3 t) in
      List.iter
        (fun j ->
          Alcotest.(check bool)
            (Printf.sprintf "par%d under ctl=%d" j t)
            (j = t)
            (out_bit c out (Printf.sprintf "par%d" j)))
        (List.init 8 Fun.id);
      Alcotest.(check bool)
        (Printf.sprintf "parall under ctl=%d" t)
        true
        (out_bit c out "parall"))
    [ 0; 3; 5; 7 ];
  (* equality bank *)
  let out = outputs_for c (bits "q" 16 0xbeef @ bits "r" 16 0xbeef) in
  Alcotest.(check bool) "qeq_all on equal buses" true
    (out_bit c out "qeq_all");
  let out = outputs_for c (bits "q" 16 0xbeef @ bits "r" 16 0xbee7) in
  Alcotest.(check bool) "qeq3 sees the differing bit" false
    (out_bit c out "qeq3");
  Alcotest.(check bool) "qeq_all off on differing buses" false
    (out_bit c out "qeq_all");
  (* flags *)
  Alcotest.(check bool) "valid under ctl1" true
    (out_bit c (outputs_for c [ "ctl1" ]) "valid");
  Alcotest.(check bool) "idle: not valid" false
    (out_bit c (outputs_for c []) "valid")

let c3540s_bits prefix value =
  List.filter_map
    (fun i ->
      if value lsr i land 1 = 1 then Some (Printf.sprintf "%s%d" prefix i)
      else None)
    (List.init 8 Fun.id)

let c3540s_word c out prefix =
  List.fold_left
    (fun acc i ->
      acc
      lor ((if out_bit c out (Printf.sprintf "%s%d" prefix i) then 1 else 0)
           lsl i))
    0
    (List.init 8 Fun.id)

let test_c3540s_interface () =
  let c = Benchmarks.c3540s () in
  Alcotest.(check int) "c3540s inputs" 50 (Circuit.input_count c);
  Alcotest.(check int) "c3540s outputs" 22 (Array.length c.Circuit.outputs);
  Alcotest.(check int) "c3540s nodes" 348 (Array.length c.Circuit.nodes)

(* Binary add (op = 000, bcd = 0), the three logic modes, and the
   operand-select muxes.  All op/sel/mode pins default low, so the add
   path needs only the operand, mask and cin pins. *)
let test_c3540s_alu () =
  let c = Benchmarks.c3540s () in
  let bits = c3540s_bits in
  let mask_all = bits "mask" 255 in
  List.iter
    (fun (a, b, cin) ->
      let high =
        bits "a" a @ bits "b" b @ mask_all @ if cin then [ "cin" ] else []
      in
      let out = outputs_for c high in
      let total = a + b + if cin then 1 else 0 in
      Alcotest.(check int)
        (Printf.sprintf "sum %d+%d" a b)
        (total land 255)
        (c3540s_word c out "y");
      Alcotest.(check bool)
        (Printf.sprintf "cout %d+%d" a b)
        (total > 255) (out_bit c out "cout");
      Alcotest.(check bool)
        (Printf.sprintf "zero %d+%d" a b)
        (total land 255 = 0)
        (out_bit c out "zero");
      Alcotest.(check bool)
        (Printf.sprintf "sign %d+%d" a b)
        (total land 128 <> 0)
        (out_bit c out "sign"))
    [ (0, 0, false); (3, 4, false); (255, 1, false); (170, 85, true);
      (200, 100, true); (255, 255, true) ];
  (* masking confines the result bus *)
  let out = outputs_for c (bits "a" 0xff @ bits "mask" 0x0f) in
  Alcotest.(check int) "mask 0x0f" 0x0f (c3540s_word c out "y");
  (* signed overflow: 0x7f + 1 flips the sign without a carry out *)
  let out = outputs_for c (bits "a" 0x7f @ bits "b" 0x01 @ mask_all) in
  Alcotest.(check bool) "ovf on 0x7f+1" true (out_bit c out "ovf");
  Alcotest.(check bool) "no cout on 0x7f+1" false (out_bit c out "cout");
  (* logic modes: 01 AND, 10 OR, 11 XOR *)
  let logic op_pins f =
    let out =
      outputs_for c
        (bits "a" 0b11001100 @ bits "b" 0b10101010 @ mask_all @ op_pins)
    in
    Alcotest.(check int)
      (String.concat "," op_pins)
      (f 0b11001100 0b10101010) (c3540s_word c out "y")
  in
  logic [ "op0" ] ( land );
  logic [ "op1" ] ( lor );
  logic [ "op0"; "op1" ] ( lxor );
  (* operand selection: sel0 routes b into x, sel1 routes c into w *)
  let out =
    outputs_for c
      (bits "b" 33 @ bits "c" 66 @ mask_all @ [ "sel0"; "sel1" ])
  in
  Alcotest.(check int) "sel: b+c" 99 (c3540s_word c out "y")

(* The BCD decimal-adjust stage and the shifter lane (op2 = 1). *)
let test_c3540s_bcd_and_shift () =
  let c = Benchmarks.c3540s () in
  let bits = c3540s_bits in
  let mask_all = bits "mask" 255 in
  (* one-digit BCD sums: a + b in [0, 19] must read back as packed BCD *)
  List.iter
    (fun (a, b) ->
      let total = a + b in
      let expect = (total / 10 * 16) + (total mod 10) in
      let out = outputs_for c (bits "a" a @ bits "b" b @ mask_all @ [ "bcd" ]) in
      Alcotest.(check int)
        (Printf.sprintf "bcd %d+%d" a b)
        expect
        (c3540s_word c out "y"))
    [ (0, 0); (5, 4); (9, 0); (11, 0); (9, 9); (7, 6); (8, 8) ];
  (* bcd low leaves the binary sum alone *)
  let out = outputs_for c (bits "a" 11 @ mask_all) in
  Alcotest.(check int) "binary 11+0" 11 (c3540s_word c out "y");
  (* shifter: dir = 0 shifts left, dir = 1 shifts right, cin is the fill;
     shen = 0 passes x through untouched *)
  let shift pins a expect label =
    let out = outputs_for c (bits "a" a @ mask_all @ ("op2" :: pins)) in
    Alcotest.(check int) label expect (c3540s_word c out "y")
  in
  shift [ "shen" ] 0b01011010 0b10110100 "shift left";
  shift [ "shen"; "cin" ] 0b01011010 0b10110101 "shift left, fill";
  shift [ "shen"; "dir" ] 0b01011010 0b00101101 "shift right";
  shift [ "shen"; "dir"; "cin" ] 0b01011010 0b10101101 "shift right, fill";
  shift [] 0b01011010 0b01011010 "shift disabled"

(* Comparator against the c bus, the 5-line priority encoder, and the
   enable-gated condition outputs. *)
let test_c3540s_compare_and_priority () =
  let c = Benchmarks.c3540s () in
  let bits = c3540s_bits in
  let compare_at a cv =
    let out = outputs_for c (bits "a" a @ bits "c" cv) in
    (out_bit c out "eq", out_bit c out "gt")
  in
  Alcotest.(check (pair bool bool)) "5 vs 5" (true, false) (compare_at 5 5);
  Alcotest.(check (pair bool bool)) "9 vs 3" (false, true) (compare_at 9 3);
  Alcotest.(check (pair bool bool)) "3 vs 9" (false, false) (compare_at 3 9);
  Alcotest.(check (pair bool bool)) "200 vs 199" (false, true)
    (compare_at 200 199);
  (* priority encoder: highest of pr3..pr0 encodes on pri1/pri0; pr4
     preempts with code 0; no request drops valid *)
  let prio pins =
    let out = outputs_for c pins in
    ( out_bit c out "valid",
      (if out_bit c out "pri1" then 2 else 0)
      + if out_bit c out "pri0" then 1 else 0 )
  in
  Alcotest.(check (pair bool int)) "pr3" (true, 3) (prio [ "pr3" ]);
  Alcotest.(check (pair bool int)) "pr2|pr0" (true, 2) (prio [ "pr2"; "pr0" ]);
  Alcotest.(check (pair bool int)) "pr1" (true, 1) (prio [ "pr1" ]);
  Alcotest.(check (pair bool int)) "pr4 preempts pr3" (true, 0)
    (prio [ "pr4"; "pr3" ]);
  Alcotest.(check (pair bool int)) "idle" (false, 0) (prio []);
  (* condition outputs fire only with their enable *)
  let out = outputs_for c (bits "a" 5 @ bits "c" 5 @ [ "en0" ]) in
  Alcotest.(check bool) "q0 = en0 & eq" true (out_bit c out "q0");
  let out = outputs_for c (bits "a" 5 @ bits "c" 5) in
  Alcotest.(check bool) "q0 quiet without en0" false (out_bit c out "q0");
  let out = outputs_for c (bits "a" 9 @ bits "c" 3 @ [ "en1"; "en0" ]) in
  Alcotest.(check bool) "q1 = en1 & gt" true (out_bit c out "q1");
  Alcotest.(check bool) "q0 stays low on gt" false (out_bit c out "q0");
  let out =
    outputs_for c (bits "a" 0x7f @ bits "b" 1 @ bits "mask" 255 @ [ "en3" ])
  in
  Alcotest.(check bool) "q3 = en3 & ovf" true (out_bit c out "q3")

let () =
  Alcotest.run "dl_netlist"
    [
      ( "gate",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_eval_truth_tables;
          Alcotest.test_case "word eval matches" `Quick test_gate_eval_word_matches_eval;
          Alcotest.test_case "of_string" `Quick test_gate_of_string;
          Alcotest.test_case "controlling values" `Quick test_gate_controlling;
          Alcotest.test_case "arity violations" `Quick test_gate_arity_violations;
          Alcotest.test_case "opcodes" `Quick test_gate_opcodes;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "lowered structure" `Quick test_kernel_structure;
          Alcotest.test_case "ffr partition invariants" `Quick
            test_kernel_ffr_invariants;
          Alcotest.test_case "bounds and validation" `Quick
            test_kernel_rejects_malformed_arity;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "counts" `Quick test_circuit_counts;
          Alcotest.test_case "find" `Quick test_circuit_find;
          Alcotest.test_case "fanout consistency" `Quick test_circuit_fanout_consistency;
          Alcotest.test_case "levels monotone" `Quick test_circuit_levels_monotone;
          Alcotest.test_case "duplicate rejected" `Quick test_builder_duplicate_rejected;
          Alcotest.test_case "cycle rejected" `Quick test_builder_cycle_rejected;
          Alcotest.test_case "dangling rejected" `Quick test_builder_dangling_rejected;
          Alcotest.test_case "line count" `Quick test_line_count;
        ] );
      ( "bench-format",
        [
          Alcotest.test_case "roundtrip all benchmarks" `Quick test_bench_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_bench_parse_errors;
          Alcotest.test_case "comments and case" `Quick test_bench_comments_and_case;
        ] );
      ( "generators",
        [
          Alcotest.test_case "ripple adder adds" `Quick test_ripple_adder_function;
          Alcotest.test_case "parity tree" `Quick test_parity_tree_function;
          Alcotest.test_case "comparator" `Quick test_comparator_function;
          Alcotest.test_case "multiplexer" `Quick test_mux_function;
          Alcotest.test_case "decoder" `Quick test_decoder_function;
          Alcotest.test_case "random generator valid" `Quick test_random_generator_valid;
          Alcotest.test_case "priority controller" `Quick test_priority_controller_interface;
        ] );
      ( "families",
        [
          Alcotest.test_case "registry" `Quick test_family_registry;
          Alcotest.test_case "valid + deterministic" `Quick
            test_family_builds_valid_and_deterministic;
          Alcotest.test_case "xor-heavy mix" `Quick
            test_family_xor_heavy_is_xor_rich;
          Alcotest.test_case "families simulate" `Quick test_family_simulates;
        ] );
      ( "transform",
        [
          Alcotest.test_case "decompose wide gates" `Quick test_decompose_wide_gates;
          Alcotest.test_case "identity when mappable" `Quick test_decompose_identity_when_mappable;
          Alcotest.test_case "single-input gates" `Quick test_decompose_single_input_gates;
          Alcotest.test_case "eliminate_node" `Quick test_eliminate_node;
          Alcotest.test_case "eliminate output node" `Quick test_eliminate_output_node;
          Alcotest.test_case "prune_dead" `Quick test_prune_dead;
        ] );
      ( "generator-errors",
        [
          Alcotest.test_case "Input in profile rejected" `Quick
            test_generator_input_in_profile_rejected;
          Alcotest.test_case "degenerate reduction widths" `Quick
            test_reduction_degenerate_widths;
          Alcotest.test_case "array multiplier width guard" `Quick
            test_array_multiplier_width_guard;
        ] );
      ( "iscas-like",
        [
          Alcotest.test_case "c499s interface" `Quick test_c499s_interface;
          Alcotest.test_case "c880s interface" `Quick test_c880s_interface;
          Alcotest.test_case "c499s single-error correction" `Quick
            test_c499s_correction;
          Alcotest.test_case "c880s ALU add/cout/zero" `Quick
            test_c880s_alu_add;
          Alcotest.test_case "c880s logic mode + priority encoder" `Quick
            test_c880s_alu_logic_and_priority;
          Alcotest.test_case "c1355s interface + NAND mix" `Quick
            test_c1355s_interface;
          Alcotest.test_case "c1355s = c499s functionally" `Quick
            test_c1355s_equals_c499s;
          Alcotest.test_case "c1908s interface" `Quick test_c1908s_interface;
          Alcotest.test_case "c1908s SEC/DED behavior" `Quick
            test_c1908s_secded;
          Alcotest.test_case "c2670s interface + NAND mix" `Quick
            test_c2670s_interface;
          Alcotest.test_case "c2670s adder + comparator" `Quick
            test_c2670s_alu;
          Alcotest.test_case "c2670s masks, decoder, equality bank" `Quick
            test_c2670s_masks_and_control;
          Alcotest.test_case "c3540s interface" `Quick test_c3540s_interface;
          Alcotest.test_case "c3540s adder, logic, operand select" `Quick
            test_c3540s_alu;
          Alcotest.test_case "c3540s BCD adjust + shifter" `Quick
            test_c3540s_bcd_and_shift;
          Alcotest.test_case "c3540s compare, priority, conditions" `Quick
            test_c3540s_compare_and_priority;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generator_deterministic; prop_roundtrip_random ] );
    ]
