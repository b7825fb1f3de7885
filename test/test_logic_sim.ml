open Dl_netlist
open Dl_logic

let rng = Dl_util.Rng.create 101

(* --- Ternary algebra ------------------------------------------------------- *)

let tern = Alcotest.testable (fun ppf v -> Format.pp_print_char ppf (Ternary.to_char v)) Ternary.equal

let test_ternary_inv () =
  Alcotest.check tern "inv 0" Ternary.V1 (Ternary.inv Ternary.V0);
  Alcotest.check tern "inv X" Ternary.VX (Ternary.inv Ternary.VX)

let test_ternary_dominance () =
  (* controlling values decide even against X *)
  Alcotest.check tern "0 and X" Ternary.V0 (Ternary.band Ternary.V0 Ternary.VX);
  Alcotest.check tern "1 or X" Ternary.V1 (Ternary.bor Ternary.V1 Ternary.VX);
  Alcotest.check tern "X and 1" Ternary.VX (Ternary.band Ternary.VX Ternary.V1);
  Alcotest.check tern "x xor 1" Ternary.VX (Ternary.bxor Ternary.VX Ternary.V1)

let test_ternary_consistency_with_bool () =
  (* on definite values, ternary ops agree with Gate.eval *)
  List.iter
    (fun kind ->
      for code = 0 to 3 do
        let a = code land 1 = 1 and b = code land 2 = 2 in
        let expected = Gate.eval kind [| a; b |] in
        let got = Ternary.eval kind [| Ternary.of_bool a; Ternary.of_bool b |] in
        Alcotest.check tern (Gate.to_string kind) (Ternary.of_bool expected) got
      done)
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let test_ternary_chars () =
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun v -> Ternary.of_char (Ternary.to_char v) = Some v)
       [ Ternary.V0; Ternary.V1; Ternary.VX ])

(* --- Sim2 ------------------------------------------------------------------ *)

let test_sim2_c17_known_vector () =
  let c = Benchmarks.c17 () in
  (* all inputs 0: n10 = n11 = 1, n16 = NAND(0,1)=1, n19 = NAND(1,0)=1,
     n22 = NAND(1,1)=0, n23 = NAND(1,1)=0 *)
  let out = Sim2.output_bits c (Array.make 5 false) in
  Alcotest.(check (array bool)) "all-zero response" [| false; false |] out

let test_sim2_parallel_matches_single () =
  let c = Benchmarks.c432s_small () in
  let words = Sim2.random_words rng c in
  let values = Sim2.run c words in
  for bit = 0 to 63 do
    let v = Sim2.pattern_of_words c words bit in
    let single = Sim2.run_single c v in
    Array.iteri
      (fun id w ->
        let expect = Int64.logand (Int64.shift_right_logical w bit) 1L = 1L in
        if single.(id) <> expect then Alcotest.failf "node %d bit %d mismatch" id bit)
      values
  done

let test_sim2_pack_unpack () =
  let c = Benchmarks.c17 () in
  let patterns =
    Array.init 20 (fun _ -> Array.init 5 (fun _ -> Dl_util.Rng.bool rng))
  in
  let words = Sim2.words_of_patterns c patterns in
  Array.iteri
    (fun i p ->
      Alcotest.(check (array bool)) "roundtrip" p (Sim2.pattern_of_words c words i))
    patterns

(* --- Flat-kernel path ------------------------------------------------------- *)

let random_vectors c n =
  Array.init n (fun _ ->
      Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))

(* Random PI words written straight into each sub-word (no pattern
   transpose) over a buffer pre-filled with all-ones: every node's sub-word
   [w] must equal Sim2.run over sub-word [w]'s PI words, so run_flat4 also
   overwrites every non-PI slot. *)
let test_run_flat4_matches_run_random_words () =
  List.iter
    (fun (name, make) ->
      let c = make () in
      let k = Kernel.of_circuit c in
      let buf4 = Kernel.create_words4 k in
      for _ = 1 to 10 do
        let words = Array.init 4 (fun _ -> Sim2.random_words rng c) in
        Bigarray.Array1.fill buf4 (-1L);
        Array.iteri
          (fun i pi ->
            for w = 0 to 3 do
              Bigarray.Array1.set buf4 ((4 * pi) + w) words.(w).(i)
            done)
          k.Kernel.inputs;
        Sim2.run_flat4 k buf4;
        for w = 0 to 3 do
          Array.iteri
            (fun id word ->
              if Bigarray.Array1.get buf4 ((4 * id) + w) <> word then
                Alcotest.failf "%s: node %d sub-word %d differs from Sim2.run"
                  name id w)
            (Sim2.run c words.(w))
        done
      done)
    Benchmarks.all

(* Sub-word [w] of every node after run_flat4 is bit-identical to the
   reference Sim2.run over patterns 64w..64w+63 of the block. *)
let test_run_flat4_matches_run () =
  List.iter
    (fun (name, make) ->
      let c = make () in
      let k = Kernel.of_circuit c in
      let buf4 = Kernel.create_words4 k in
      let vectors = random_vectors c 256 in
      Sim2.load_patterns4 k buf4 vectors ~base:0 ~count:256;
      Sim2.run_flat4 k buf4;
      for w = 0 to 3 do
        let expect =
          Sim2.run c (Sim2.words_of_patterns c (Array.sub vectors (64 * w) 64))
        in
        Array.iteri
          (fun id word ->
            if Bigarray.Array1.get buf4 ((4 * id) + w) <> word then
              Alcotest.failf "%s: node %d sub-word %d differs from Sim2.run"
                name id w)
          expect
      done)
    Benchmarks.all

(* Each PI sub-word is words_of_patterns over that sub-word's vectors,
   zero-filled past [count]. *)
let test_load_patterns4_matches_pack () =
  let c = Benchmarks.c432s_small () in
  let k = Kernel.of_circuit c in
  let buf4 = Kernel.create_words4 k in
  let vectors = random_vectors c 600 in
  List.iter
    (fun (base, count) ->
      Sim2.load_patterns4 k buf4 vectors ~base ~count;
      for w = 0 to 3 do
        let lo = min count (64 * w) and hi = min count (64 * (w + 1)) in
        let expect =
          Sim2.words_of_patterns c (Array.sub vectors (base + lo) (hi - lo))
        in
        Array.iteri
          (fun i pi ->
            if Bigarray.Array1.get buf4 ((4 * pi) + w) <> expect.(i) then
              Alcotest.failf "base=%d count=%d: PI %d sub-word %d mismatch"
                base count i w)
          k.Kernel.inputs
      done)
    [ (0, 256); (256, 256); (512, 88); (0, 1); (599, 1); (10, 63); (3, 130) ]

let test_load_patterns4_clears_stale_bits () =
  (* a short block after a full one must not leak the previous block's
     high bits *)
  let c = Benchmarks.c17 () in
  let k = Kernel.of_circuit c in
  let buf4 = Kernel.create_words4 k in
  let ones = Array.init 256 (fun _ -> Array.make 5 true) in
  Sim2.load_patterns4 k buf4 ones ~base:0 ~count:256;
  let zeros = [| Array.make 5 false |] in
  Sim2.load_patterns4 k buf4 zeros ~base:0 ~count:1;
  Array.iter
    (fun pi ->
      for w = 0 to 3 do
        Alcotest.(check bool) "stale bits cleared" true
          (Bigarray.Array1.get buf4 ((4 * pi) + w) = 0L)
      done)
    k.Kernel.inputs

let test_run_flat4_matches_sim3_definite () =
  let c = Generator.ripple_adder 8 in
  let k = Kernel.of_circuit c in
  let buf4 = Kernel.create_words4 k in
  let vectors = random_vectors c 20 in
  Sim2.load_patterns4 k buf4 vectors ~base:0 ~count:20;
  Sim2.run_flat4 k buf4;
  Array.iteri
    (fun bit v ->
      let r3 = Sim3.run c (Array.map Ternary.of_bool v) in
      Array.iteri
        (fun id t ->
          let word = Bigarray.Array1.get buf4 (4 * id) in
          let flat = Int64.logand (Int64.shift_right_logical word bit) 1L = 1L in
          Alcotest.check tern "kernel agrees with sim3" t (Ternary.of_bool flat))
        r3)
    vectors

(* A ragged wide block (count not a multiple of 64) zero-fills the tail:
   covered sub-words match words_of_patterns, uncovered PI sub-words are
   0, even over a dirty buffer. *)
let test_load_patterns4_ragged_tail () =
  let c = Benchmarks.c432s_small () in
  let k = Kernel.of_circuit c in
  let buf4 = Kernel.create_words4 k in
  let vectors = random_vectors c 150 in
  (* dirty the wide buffer first so stale bits would be caught *)
  Sim2.load_patterns4 k buf4
    (Array.map (fun v -> Array.map (fun _ -> true) v) vectors)
    ~base:0 ~count:150;
  Sim2.load_patterns4 k buf4 vectors ~base:0 ~count:100;
  (* sub-word 0: patterns 0..63; sub-word 1: the 36-pattern tail *)
  let w0 = Sim2.words_of_patterns c (Array.sub vectors 0 64)
  and w1 = Sim2.words_of_patterns c (Array.sub vectors 64 36) in
  Array.iteri
    (fun i pi ->
      if Bigarray.Array1.get buf4 (4 * pi) <> w0.(i) then
        Alcotest.failf "PI %d sub-word 0 mismatch" i;
      if Bigarray.Array1.get buf4 ((4 * pi) + 1) <> w1.(i) then
        Alcotest.failf "PI %d sub-word 1 mismatch" i;
      for w = 2 to 3 do
        if Bigarray.Array1.get buf4 ((4 * pi) + w) <> 0L then
          Alcotest.failf "PI %d sub-word %d not zero-filled" i w
      done)
    k.Kernel.inputs

let test_load_patterns4_rejects_bad_ranges () =
  let c = Benchmarks.c17 () in
  let k = Kernel.of_circuit c in
  let buf4 = Kernel.create_words4 k in
  let vectors = [| Array.make 5 false |] in
  let expect_invalid what f =
    Alcotest.(check bool) what true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "count > 256" (fun () ->
      Sim2.load_patterns4 k buf4 (Array.make 257 vectors.(0)) ~base:0
        ~count:257);
  expect_invalid "slice out of range" (fun () ->
      Sim2.load_patterns4 k buf4 vectors ~base:0 ~count:2);
  expect_invalid "negative base" (fun () ->
      Sim2.load_patterns4 k buf4 vectors ~base:(-1) ~count:1);
  expect_invalid "wrong pattern width" (fun () ->
      Sim2.load_patterns4 k buf4 [| Array.make 4 false |] ~base:0 ~count:1);
  expect_invalid "short buffer" (fun () ->
      Sim2.load_patterns4 k (Kernel.alloc k.Kernel.n) vectors ~base:0 ~count:1)

(* --- Sim3 ------------------------------------------------------------------ *)

let test_sim3_definite_matches_sim2 () =
  let c = Generator.ripple_adder 8 in
  for _ = 1 to 50 do
    let v = Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng) in
    let v3 = Array.map Ternary.of_bool v in
    let r2 = Sim2.run_single c v in
    let r3 = Sim3.run c v3 in
    Array.iteri
      (fun id b ->
        Alcotest.check tern "agree" (Ternary.of_bool b) r3.(id))
      r2
  done

let test_sim3_x_propagation () =
  let c = Benchmarks.c17 () in
  (* all X in: all X out *)
  let r = Sim3.run c (Array.make 5 Ternary.VX) in
  Array.iter (fun o -> Alcotest.check tern "output X" Ternary.VX r.(o)) c.outputs

let test_sim3_partial_x () =
  (* AND with one 0 input stays 0 even with X elsewhere *)
  let b = Circuit.Builder.create ~title:"t" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "o" Gate.And [ "a"; "b" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let r = Sim3.run c [| Ternary.V0; Ternary.VX |] in
  Alcotest.check tern "0 dominates" Ternary.V0 r.(Circuit.find c "o")

let test_sim3_fault_injection_stem () =
  let c = Benchmarks.c17 () in
  let n10 = Circuit.find c "n10" in
  let v = Array.make 5 Ternary.V0 in
  (* fault-free n10 = 1 with all-0 inputs; force stuck-0 *)
  let faulty = Sim3.run_with_fault c ~site:(Sim3.Stem n10) ~stuck:false v in
  Alcotest.check tern "forced stem" Ternary.V0 faulty.(n10)

let test_sim3_fault_injection_branch () =
  let c = Benchmarks.c17 () in
  let n22 = Circuit.find c "n22" in
  let v = Array.make 5 Ternary.V0 in
  (* inputs of n22 are both 1 under all-0; forcing pin 0 to 0 flips output *)
  let good = Sim3.run c v in
  let faulty =
    Sim3.run_with_fault c ~site:(Sim3.Branch { gate = n22; pin = 0 }) ~stuck:false v
  in
  Alcotest.check tern "good 0" Ternary.V0 good.(n22);
  Alcotest.check tern "faulty 1" Ternary.V1 faulty.(n22)

(* --- qcheck: Sim3 X-propagation ------------------------------------------- *)

let random_case seed =
  let inputs = 4 + (seed mod 4) in
  let c =
    Generator.random ~seed ~inputs ~outputs:2
      ~profile:
        [ (Gate.Nand, 10); (Gate.Nor, 5); (Gate.Xor, 3); (Gate.Not, 3);
          (Gate.Buf, 1) ]
      ()
  in
  let rng = Dl_util.Rng.create (seed lxor 0x5DEECE66) in
  let pi =
    Array.init inputs (fun _ ->
        match Dl_util.Rng.int rng 3 with
        | 0 -> Ternary.V0
        | 1 -> Ternary.V1
        | _ -> Ternary.VX)
  in
  (c, rng, pi)

(* Refining one X input to a definite value never flips an already-
   determined node — X-propagation is monotone in the information order. *)
let prop_sim3_x_monotone =
  QCheck.Test.make ~name:"sim3 refinement never flips determined nodes"
    ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let c, _, pi = random_case seed in
      let before = Sim3.run c pi in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if v = Ternary.VX then
            List.iter
              (fun bit ->
                let refined = Array.copy pi in
                refined.(i) <- bit;
                let after = Sim3.run c refined in
                Array.iteri
                  (fun id b ->
                    if b <> Ternary.VX && after.(id) <> b then ok := false)
                  before)
              [ Ternary.V0; Ternary.V1 ])
        pi;
      !ok)

(* A node Sim3 calls determined has that value under *every* completion of
   the X inputs (checked on sampled completions against Sim2). *)
let prop_sim3_determined_sound =
  QCheck.Test.make ~name:"sim3 determined nodes hold for all completions"
    ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let c, rng, pi = random_case seed in
      let tern = Sim3.run c pi in
      let ok = ref true in
      for _ = 1 to 8 do
        let completion =
          Array.map
            (fun v ->
              match Ternary.to_bool v with
              | Some b -> b
              | None -> Dl_util.Rng.bool rng)
            pi
        in
        let bin = Sim2.run_single c completion in
        Array.iteri
          (fun id v ->
            match Ternary.to_bool v with
            | Some b -> if b <> bin.(id) then ok := false
            | None -> ())
          tern
      done;
      !ok)

let () =
  Alcotest.run "dl_logic"
    [
      ( "ternary",
        [
          Alcotest.test_case "inversion" `Quick test_ternary_inv;
          Alcotest.test_case "dominance" `Quick test_ternary_dominance;
          Alcotest.test_case "agrees with bool" `Quick test_ternary_consistency_with_bool;
          Alcotest.test_case "char roundtrip" `Quick test_ternary_chars;
        ] );
      ( "sim2",
        [
          Alcotest.test_case "c17 known vector" `Quick test_sim2_c17_known_vector;
          Alcotest.test_case "parallel = single" `Quick test_sim2_parallel_matches_single;
          Alcotest.test_case "pack/unpack" `Quick test_sim2_pack_unpack;
        ] );
      ( "flat-kernel",
        [
          Alcotest.test_case "run_flat4 = run on random PI words" `Quick
            test_run_flat4_matches_run_random_words;
          Alcotest.test_case "run_flat4 = run per sub-word" `Quick
            test_run_flat4_matches_run;
          Alcotest.test_case "load_patterns4 = pack per sub-word" `Quick
            test_load_patterns4_matches_pack;
          Alcotest.test_case "stale bits cleared" `Quick
            test_load_patterns4_clears_stale_bits;
          Alcotest.test_case "matches sim3 on definite" `Quick
            test_run_flat4_matches_sim3_definite;
          Alcotest.test_case "bad ranges rejected" `Quick
            test_load_patterns4_rejects_bad_ranges;
          Alcotest.test_case "load_patterns4 ragged tail" `Quick
            test_load_patterns4_ragged_tail;
        ] );
      ( "sim3",
        [
          Alcotest.test_case "definite matches sim2" `Quick test_sim3_definite_matches_sim2;
          Alcotest.test_case "X propagation" `Quick test_sim3_x_propagation;
          Alcotest.test_case "partial X dominance" `Quick test_sim3_partial_x;
          Alcotest.test_case "stem fault injection" `Quick test_sim3_fault_injection_stem;
          Alcotest.test_case "branch fault injection" `Quick test_sim3_fault_injection_branch;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sim3_x_monotone; prop_sim3_determined_sound ] );
    ]
