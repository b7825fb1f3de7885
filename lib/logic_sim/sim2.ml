open Dl_netlist

let run (c : Circuit.t) pi_words =
  if Array.length pi_words <> Array.length c.inputs then
    invalid_arg "Sim2.run: one word per primary input required";
  let values = Array.make (Circuit.node_count c) 0L in
  Array.iteri (fun i id -> values.(id) <- pi_words.(i)) c.inputs;
  Array.iter
    (fun id ->
      let nd = c.nodes.(id) in
      if nd.kind <> Gate.Input then begin
        let ins = Array.map (fun src -> values.(src)) nd.fanin in
        values.(id) <- Gate.eval_word nd.kind ins
      end)
    c.topo_order;
  values

(* --- Flat-kernel entry points -------------------------------------------- *)

(* [run] above is retained as the reference engine the kernel path is
   property-tested against; [load_patterns4]/[run_flat4] below are the
   production hot path: caller-provided bigarray buffer, 256 patterns per
   pass, no per-run or per-gate allocation. *)

let load_patterns4 (k : Kernel.t) (buf : Kernel.words) vectors ~base ~count =
  let npi = Array.length k.inputs in
  if count < 0 || count > 256 then
    invalid_arg "Sim2.load_patterns4: count must be in 0..256";
  if base < 0 || base + count > Array.length vectors then
    invalid_arg "Sim2.load_patterns4: vector slice out of range";
  if Bigarray.Array1.dim buf < 4 * k.n then
    invalid_arg "Sim2.load_patterns4: values buffer shorter than 4x node count";
  for bit = 0 to count - 1 do
    if Array.length vectors.(base + bit) <> npi then
      invalid_arg "Sim2.load_patterns4: pattern width mismatch"
  done;
  (* Transpose the vector slice straight into the PI word slots, split
     over the four sub-words: bit [b] of sub-word [w] of PI word [i] is
     vector [base + 64w + b]'s value for input [i], high bits beyond
     [count] zero-filled (matching [words_of_patterns]). *)
  for i = 0 to npi - 1 do
    let pi4 = Array.unsafe_get k.inputs i * 4 in
    for w = 0 to 3 do
      let lo = w * 64 in
      let cnt =
        if count <= lo then 0 else if count - lo > 64 then 64 else count - lo
      in
      let word = ref 0L in
      for bit = 0 to cnt - 1 do
        if Array.unsafe_get (Array.unsafe_get vectors (base + lo + bit)) i then
          word := Int64.logor !word (Int64.shift_left 1L bit)
      done;
      Bigarray.Array1.unsafe_set buf (pi4 + w) !word
    done
  done

let run_flat4 (k : Kernel.t) (buf : Kernel.words) = Kernel.run_into4 k buf

let outputs_of (c : Circuit.t) values =
  Array.map (fun id -> values.(id)) c.outputs

let bools_to_words bits = Array.map (fun b -> if b then -1L else 0L) bits

let run_single c pi_bits =
  let values = run c (bools_to_words pi_bits) in
  Array.map (fun w -> Int64.logand w 1L = 1L) values

let output_bits c pi_bits =
  let values = run_single c pi_bits in
  Array.map (fun id -> values.(id)) c.outputs

let random_words rng (c : Circuit.t) =
  Array.init (Array.length c.inputs) (fun _ -> Dl_util.Rng.word rng)

let pattern_of_words (c : Circuit.t) pi_words bit =
  if bit < 0 || bit > 63 then invalid_arg "Sim2.pattern_of_words: bit out of range";
  if Array.length pi_words <> Array.length c.inputs then
    invalid_arg "Sim2.pattern_of_words: word count mismatch";
  Array.map
    (fun w -> Int64.logand (Int64.shift_right_logical w bit) 1L = 1L)
    pi_words

let words_of_patterns (c : Circuit.t) patterns =
  let npi = Array.length c.inputs in
  if Array.length patterns > 64 then
    invalid_arg "Sim2.words_of_patterns: more than 64 patterns";
  Array.iter
    (fun p ->
      if Array.length p <> npi then
        invalid_arg "Sim2.words_of_patterns: pattern width mismatch")
    patterns;
  Array.init npi (fun pi ->
      let w = ref 0L in
      Array.iteri
        (fun bit p ->
          if p.(pi) then w := Int64.logor !w (Int64.shift_left 1L bit))
        patterns;
      !w)
