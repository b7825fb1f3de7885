open Dl_netlist
module Sim2 = Dl_logic.Sim2
module Parallel = Dl_util.Parallel

(* Per-run simulation counters.  [gate_evaluations] is counted in 64-pattern
   units everywhere (the wide engine counts 4 per 256-pattern gate fetch) so
   throughputs stay comparable across engines; the remaining counters are
   whatever the engine actually tracks — the reference engine reports only
   its evaluation count, and no engine simulates faults one by one any more,
   so [faults_simulated] is always 0.  The record keeps that field because
   the detections codec serializes all six counters (see {!Stats} in the
   interface). *)
module Stats = struct
  type t = {
    gate_evaluations : int;
    events : int;
    faults_inferred : int;
    faults_simulated : int;
    stem_simulations : int;
    faults_dropped : int;
  }

  let zero =
    {
      gate_evaluations = 0;
      events = 0;
      faults_inferred = 0;
      faults_simulated = 0;
      stem_simulations = 0;
      faults_dropped = 0;
    }

  let add a b =
    {
      gate_evaluations = a.gate_evaluations + b.gate_evaluations;
      events = a.events + b.events;
      faults_inferred = a.faults_inferred + b.faults_inferred;
      faults_simulated = a.faults_simulated + b.faults_simulated;
      stem_simulations = a.stem_simulations + b.stem_simulations;
      faults_dropped = a.faults_dropped + b.faults_dropped;
    }

  let pp ppf s =
    Format.fprintf ppf
      "%d gate evals, %d events, %d faults traced / %d simulated (%d stem \
       sims), %d dropped"
      s.gate_evaluations s.events s.faults_inferred s.faults_simulated
      s.stem_simulations s.faults_dropped
end

type result = {
  faults : Stuck_at.t array;
  first_detection : int option array;
  vectors_applied : int;
  gate_evaluations : int;
  stats : Stats.t;
}

type engine = Reference | Wide

let engines = [ Reference; Wide ]

let engine_to_string = function Reference -> "reference" | Wide -> "wide"

let engine_of_string = function
  | "reference" -> Some Reference
  | "wide" -> Some Wide
  | _ -> None

(* Retired-early count, shared by every driver: with fault dropping every
   detected fault is retired at its detecting block. *)
let dropped_of ~drop_detected first_detection =
  if not drop_detected then 0
  else
    Array.fold_left
      (fun acc d -> match d with Some _ -> acc + 1 | None -> acc)
      0 first_detection

(* --- Shared helpers ------------------------------------------------------- *)

(* Constant-time bit-scan-forward: isolate the lowest set bit with
   [w land (-w)], then perfect-hash the isolated bit through a de Bruijn
   multiplication (the classic chess-programming B(2,6) construction). *)
let debruijn64 = 0x03f79d71b4cb0a89L

let debruijn_index =
  [|
    0;  1;  48; 2;  57; 49; 28; 3;
    61; 58; 50; 42; 38; 29; 17; 4;
    62; 55; 59; 36; 53; 51; 43; 22;
    45; 39; 33; 30; 24; 18; 12; 5;
    63; 47; 56; 27; 60; 41; 37; 16;
    54; 35; 52; 21; 44; 32; 23; 11;
    46; 26; 40; 15; 34; 20; 31; 10;
    25; 14; 19; 9;  13; 8;  7;  6;
  |]

let lowest_set_bit w =
  if w = 0L then None
  else
    let isolated = Int64.logand w (Int64.neg w) in
    Some
      debruijn_index.(Int64.to_int
                        (Int64.shift_right_logical
                           (Int64.mul isolated debruijn64)
                           58))

let output_map (c : Circuit.t) =
  let is_output = Array.make (Circuit.node_count c) false in
  Array.iter (fun o -> is_output.(o) <- true) c.outputs;
  is_output

let fire_events callback ~base ~count ~fault_index word =
  for bit = 0 to count - 1 do
    if Int64.logand (Int64.shift_right_logical word bit) 1L = 1L then
      callback ~fault_index ~vector_index:(base + bit)
  done

(* The already-recorded check comes first so the bit scan (and its [Some]
   allocation) runs at most once per fault, not once per detecting block. *)
let record_first first_detection fi ~base word =
  match first_detection.(fi) with
  | Some _ -> ()
  | None -> (
      match lowest_set_bit word with
      | Some bit -> first_detection.(fi) <- Some (base + bit)
      | None -> ())

let valid_mask_of count =
  if count = 64 then -1L else Int64.sub (Int64.shift_left 1L count) 1L

(* Every public entry point validates its fault list once, up front.  The
   wide engine indexes node and pin buffers by fault site without bounds
   checks, so an out-of-range site would read past the circuit's arrays
   (or, for a branch pin beyond its gate's fanin, silently go undetected)
   instead of failing. *)
let check_faults (c : Circuit.t) faults =
  let n = Circuit.node_count c in
  (* The message is built only on failure: this runs on every call, so the
     success path allocates nothing. *)
  let bad i (f : Stuck_at.t) why =
    let site =
      match f.site with
      | Stuck_at.Stem id -> Printf.sprintf "stem %d" id
      | Stuck_at.Branch { gate; pin } -> Printf.sprintf "branch %d.in%d" gate pin
    in
    invalid_arg
      (Printf.sprintf "Fault_sim: fault %d (%s %s) out of range: %s" i site
         (if Stuck_at.polarity_bool f.polarity then "SA1" else "SA0")
         why)
  in
  for i = 0 to Array.length faults - 1 do
    let f : Stuck_at.t = faults.(i) in
    match f.site with
    | Stuck_at.Stem id ->
        if id < 0 || id >= n then
          bad i f (Printf.sprintf "node ids are 0..%d" (n - 1))
    | Stuck_at.Branch { gate; pin } ->
        if gate < 0 || gate >= n then
          bad i f (Printf.sprintf "node ids are 0..%d" (n - 1))
        else
          let arity = Array.length c.nodes.(gate).fanin in
          if pin < 0 || pin >= arity then
            bad i f (Printf.sprintf "node %d has %d inputs" gate arity)
  done

(* --- Reference engine ------------------------------------------------------

   The pre-kernel PPSFP implementation, retained verbatim as the oracle the
   wide engine below is property-tested against (same [first_detection],
   same [on_detect] event stream).  It simulates every fault explicitly and
   allocates per gate evaluation (fanin [Array.map]s, [int list] schedule
   buckets). *)
module Reference = struct
  (* Pending-node schedule bucketed by level, so faulty values propagate in
     topological order and each node is evaluated once per fault/block. *)
  module Schedule = struct
    type t = {
      buckets : int list array;
      queued : bool array;
      mutable level : int;
      mutable remaining : int;
    }

    let create depth nodes =
      {
        buckets = Array.make (depth + 1) [];
        queued = Array.make nodes false;
        level = 0;
        remaining = 0;
      }

    let push t ~level id =
      if not t.queued.(id) then begin
        t.queued.(id) <- true;
        t.buckets.(level) <- id :: t.buckets.(level);
        if level < t.level then t.level <- level;
        t.remaining <- t.remaining + 1
      end

    let reset t = t.level <- 0

    let pop t =
      if t.remaining = 0 then None
      else begin
        while t.buckets.(t.level) = [] do
          t.level <- t.level + 1
        done;
        match t.buckets.(t.level) with
        | [] -> assert false
        | id :: rest ->
            t.buckets.(t.level) <- rest;
            t.queued.(id) <- false;
            t.remaining <- t.remaining - 1;
            Some id
      end
  end

  (* The faulty-machine scratch arrays and schedule, reused from fault to
     fault. *)
  type scratch = {
    schedule : Schedule.t;
    faulty : int64 array;
    touched : bool array;
    mutable touched_list : int list;
    mutable gate_evaluations : int;
  }

  let make_scratch (c : Circuit.t) =
    let n_nodes = Circuit.node_count c in
    {
      schedule = Schedule.create (Circuit.depth c) n_nodes;
      faulty = Array.make n_nodes 0L;
      touched = Array.make n_nodes false;
      touched_list = [];
      gate_evaluations = 0;
    }

  (* Simulate one fault against one 64-vector block.  Returns the detection
     word (one bit per vector of the block that propagates a difference to
     a primary output).  The scratch arrays are clean on entry and are
     cleaned again before returning. *)
  let simulate_fault (c : Circuit.t) st ~is_output ~good ~valid_mask
      (f : Stuck_at.t) =
    let touch id v =
      if not st.touched.(id) then begin
        st.touched.(id) <- true;
        st.touched_list <- id :: st.touched_list
      end;
      st.faulty.(id) <- v
    in
    let value_of id = if st.touched.(id) then st.faulty.(id) else good.(id) in
    let stuck_word = if Stuck_at.polarity_bool f.polarity then -1L else 0L in
    (* Seed the faulty machine at the fault site. *)
    let detect_word = ref 0L in
    let seeded =
      match f.site with
      | Stuck_at.Stem id ->
          let diff =
            Int64.logand (Int64.logxor good.(id) stuck_word) valid_mask
          in
          if diff = 0L then false
          else begin
            touch id stuck_word;
            if is_output.(id) then detect_word := diff;
            Array.iter
              (fun succ -> Schedule.push st.schedule ~level:c.levels.(succ) succ)
              c.fanouts.(id);
            true
          end
      | Stuck_at.Branch { gate; pin } ->
          let nd = c.nodes.(gate) in
          let ins = Array.map (fun src -> good.(src)) nd.fanin in
          ins.(pin) <- stuck_word;
          st.gate_evaluations <- st.gate_evaluations + 1;
          let v = Gate.eval_word nd.kind ins in
          let diff = Int64.logand (Int64.logxor good.(gate) v) valid_mask in
          if diff = 0L then false
          else begin
            touch gate v;
            if is_output.(gate) then detect_word := diff;
            Array.iter
              (fun succ -> Schedule.push st.schedule ~level:c.levels.(succ) succ)
              c.fanouts.(gate);
            true
          end
    in
    if seeded then begin
      let rec drain () =
        match Schedule.pop st.schedule with
        | None -> ()
        | Some id ->
            let nd = c.nodes.(id) in
            let ins = Array.map value_of nd.fanin in
            (* A branch fault keeps forcing its pin on every evaluation
               of its host gate. *)
            (match f.site with
            | Stuck_at.Branch { gate; pin } when gate = id ->
                ins.(pin) <- stuck_word
            | _ -> ());
            st.gate_evaluations <- st.gate_evaluations + 1;
            let v = Gate.eval_word nd.kind ins in
            let forced =
              match f.site with
              | Stuck_at.Stem sid when sid = id -> stuck_word
              | _ -> v
            in
            let diff = Int64.logand (Int64.logxor good.(id) forced) valid_mask in
            if diff <> 0L || st.touched.(id) then begin
              touch id forced;
              if diff <> 0L then begin
                if is_output.(id) then
                  detect_word := Int64.logor !detect_word diff;
                Array.iter
                  (fun succ ->
                    Schedule.push st.schedule ~level:c.levels.(succ) succ)
                  c.fanouts.(id)
              end
            end;
            drain ()
      in
      drain ();
      List.iter (fun id -> st.touched.(id) <- false) st.touched_list;
      st.touched_list <- [];
      Schedule.reset st.schedule
    end;
    !detect_word

  let run ?(drop_detected = true) ?on_detect (c : Circuit.t) ~faults ~vectors =
    let n_faults = Array.length faults in
    let first_detection = Array.make n_faults None in
    let live = Array.make n_faults true in
    let st = make_scratch c in
    let is_output = output_map c in
    let n_vectors = Array.length vectors in
    let n_blocks = (n_vectors + 63) / 64 in
    for block = 0 to n_blocks - 1 do
      let base = block * 64 in
      let count = min 64 (n_vectors - base) in
      let patterns = Array.sub vectors base count in
      let words = Sim2.words_of_patterns c patterns in
      let good = Sim2.run c words in
      let valid_mask = valid_mask_of count in
      for fi = 0 to n_faults - 1 do
        if live.(fi) then begin
          let dw = simulate_fault c st ~is_output ~good ~valid_mask faults.(fi) in
          if dw <> 0L then begin
            record_first first_detection fi ~base dw;
            (match on_detect with
            | Some callback ->
                fire_events callback ~base ~count ~fault_index:fi dw
            | None -> ());
            if drop_detected then live.(fi) <- false
          end
        end
      done
    done;
    {
      faults;
      first_detection;
      vectors_applied = n_vectors;
      gate_evaluations = st.gate_evaluations;
      stats =
        { Stats.zero with
          gate_evaluations = st.gate_evaluations;
          faults_dropped = dropped_of ~drop_detected first_detection };
    }
end

(* --- Wide engine ------------------------------------------------------------

   Fanout-free-region inference over 256-pattern (4x64) blocks; the good
   machine comes from [Sim2.run_flat4], node [i]'s four words sit at
   [4i..4i+3], and every CSR fetch is amortized over 256 patterns.

   Faults are never simulated individually.  For each FFR stem hosting a
   live fault, one toggle simulation (faulty stem = complement of good, a
   level-ordered event drain against a resident copy of the good values)
   yields the stem's observability words — the patterns on which flipping
   the stem reaches a primary output.  Each fault is then decided by
   critical-path tracing inside its region: the local fault effect is
   walked along the unique single-fanout chain to the stem, one
   boolean-difference gate evaluation per step (side inputs carry good
   values — exact, because an FFR contains no reconvergence), and the
   detection words are the traced difference AND the stem's observability.
   Per lane, the faulty machine below the stem equals the toggle machine
   whenever the traced difference reaches the stem, so this equals explicit
   simulation ([Reference]) bit for bit.

   Detection handling stays 64-pattern-sequential: a dropped fault reports
   only its first detecting sub-word, and [on_detect] replays sub-word
   major, fault minor — exactly the order a 64-pattern engine fires in. *)

type escratch = {
  kernel : Kernel.t;
  queued : bool array;
  bucket : int array;  (* per-level stacks; level l occupies
                          [level_off.(l) .. level_off.(l+1) - 1) *)
  bucket_len : int array;
  mutable cur_level : int;
  mutable remaining : int;
  faulty : Kernel.words;  (* resident good copy, perturbed and restored *)
  touched_ids : int array;
  mutable n_touched : int;
  ins : Kernel.words;  (* pin-gather buffer for tracing *)
  out : Kernel.words;
      (* slots 0..3: detection/difference words; 4..7: gather-fold results *)
  vmask : Kernel.words;
      (* per-sub-word valid masks of the current block, cached here once
         per block so the hot functions read them unboxed instead of
         recomputing int64s across call boundaries *)
  mutable gate_evaluations : int;
  mutable events : int;
  mutable stem_simulations : int;
  mutable faults_inferred : int;
}

let make_escratch (k : Kernel.t) =
  let max_arity = ref 1 in
  for id = 0 to k.n - 1 do
    let a = k.fanin_off.(id + 1) - k.fanin_off.(id) in
    if a > !max_arity then max_arity := a
  done;
  {
    kernel = k;
    queued = Array.make k.n false;
    bucket = Array.make (max 1 k.n) 0;
    bucket_len = Array.make k.n_levels 0;
    cur_level = 0;
    remaining = 0;
    faulty = Kernel.alloc (4 * k.n);
    touched_ids = Array.make (max 1 k.n) 0;
    n_touched = 0;
    ins = Kernel.alloc (4 * !max_arity);
    out = Kernel.alloc 8;
    vmask = Kernel.alloc 4;
    gate_evaluations = 0;
    events = 0;
    stem_simulations = 0;
    faults_inferred = 0;
  }

(* Re-arm the resident faulty buffer for a new block's good values.  Each
   toggle simulation restores every node it touched, so this is the only
   full-buffer copy per (scratch, block). *)
let resident_reset st (good : Kernel.words) =
  Bigarray.Array1.blit good st.faulty

let[@inline] push_fanouts st id =
  let k = st.kernel in
  let fo = Array.unsafe_get k.fanout_off id in
  let fe = Array.unsafe_get k.fanout_off (id + 1) in
  for j = fo to fe - 1 do
    let succ = Array.unsafe_get k.fanout j in
    if not (Array.unsafe_get st.queued succ) then begin
      Array.unsafe_set st.queued succ true;
      let l = Array.unsafe_get k.level succ in
      let bl = Array.unsafe_get st.bucket_len l in
      Array.unsafe_set st.bucket (Array.unsafe_get k.level_off l + bl) succ;
      Array.unsafe_set st.bucket_len l (bl + 1);
      st.remaining <- st.remaining + 1
    end
  done

let[@inline] touch st id =
  Array.unsafe_set st.touched_ids st.n_touched id;
  st.n_touched <- st.n_touched + 1

(* Fold the gathered pin words [st.ins.{4j..4j+3}] under opcode [op] into
   [st.out.{4..7}].  Writing to scratch slots instead of returning keeps the
   int64s unboxed across the non-inlined call. *)
let fold_ins4 st len op =
  for w = 0 to 3 do
    let v =
      if len = 1 then begin
        let a = Bigarray.Array1.unsafe_get st.ins w in
        if Gate.op_inverts op then Int64.lognot a else a
      end
      else if op <= Gate.op_nand then begin
        let acc = ref (Bigarray.Array1.unsafe_get st.ins w) in
        for j = 1 to len - 1 do
          acc :=
            Int64.logand !acc (Bigarray.Array1.unsafe_get st.ins ((j * 4) + w))
        done;
        if op = Gate.op_nand then Int64.lognot !acc else !acc
      end
      else if op <= Gate.op_nor then begin
        let acc = ref (Bigarray.Array1.unsafe_get st.ins w) in
        for j = 1 to len - 1 do
          acc :=
            Int64.logor !acc (Bigarray.Array1.unsafe_get st.ins ((j * 4) + w))
        done;
        if op = Gate.op_nor then Int64.lognot !acc else !acc
      end
      else begin
        let acc = ref (Bigarray.Array1.unsafe_get st.ins w) in
        for j = 1 to len - 1 do
          acc :=
            Int64.logxor !acc (Bigarray.Array1.unsafe_get st.ins ((j * 4) + w))
        done;
        if op = Gate.op_xnor then Int64.lognot !acc else !acc
      end
    in
    Bigarray.Array1.unsafe_set st.out (4 + w) v
  done

let site_node (f : Stuck_at.t) =
  match f.site with Stuck_at.Stem id -> id | Stuck_at.Branch { gate; _ } -> gate

(* Valid vectors in 64-pattern sub-word [w] of a [count]-vector block. *)
let[@inline] sub_count ~count w =
  let c = count - (w * 64) in
  if c <= 0 then 0 else if c >= 64 then 64 else c

(* Cache the block's four valid masks in scratch (once per block per
   scratch; the boxed mask values are off the per-fault path). *)
let set_vmasks st ~count =
  for w = 0 to 3 do
    Bigarray.Array1.unsafe_set st.vmask w (valid_mask_of (sub_count ~count w))
  done

(* Stem-toggle observability: simulate the stem forced to the complement of
   its good value; the accumulated diff words in [st.out.{0..3}], one per
   64-pattern sub-word, are exactly the patterns on which flipping the stem
   is observable at a primary output.  The frontier dies on its own when
   every evaluated node's masked diff is zero: a node whose value equals
   the resident (= good) value is neither written nor propagated. *)
let simulate_toggle4 st ~is_output ~(good : Kernel.words) stem =
  let k = st.kernel in
  st.stem_simulations <- st.stem_simulations + 1;
  let po = Array.unsafe_get is_output stem in
  for w = 0 to 3 do
    Bigarray.Array1.unsafe_set st.out w
      (if po then Bigarray.Array1.unsafe_get st.vmask w else 0L)
  done;
  let s4 = stem * 4 in
  for w = 0 to 3 do
    Bigarray.Array1.unsafe_set st.faulty (s4 + w)
      (Int64.lognot (Bigarray.Array1.unsafe_get good (s4 + w)))
  done;
  touch st stem;
  push_fanouts st stem;
  while st.remaining > 0 do
    while Array.unsafe_get st.bucket_len st.cur_level = 0 do
      st.cur_level <- st.cur_level + 1
    done;
    let l = st.cur_level in
    let bl = Array.unsafe_get st.bucket_len l - 1 in
    Array.unsafe_set st.bucket_len l bl;
    let id = Array.unsafe_get st.bucket (Array.unsafe_get k.level_off l + bl) in
    Array.unsafe_set st.queued id false;
    st.remaining <- st.remaining - 1;
    let off = Array.unsafe_get k.fanin_off id in
    let len = Array.unsafe_get k.fanin_off (id + 1) - off in
    let op = Array.unsafe_get k.opcode id in
    st.gate_evaluations <- st.gate_evaluations + 4;
    st.events <- st.events + 1;
    (* Evaluate the gate's four words from the resident buffer into
       [st.out.{4..7}]. *)
    if len = 2 then begin
      let a4 = Array.unsafe_get k.fanin off * 4 in
      let b4 = Array.unsafe_get k.fanin (off + 1) * 4 in
      for w = 0 to 3 do
        let a = Bigarray.Array1.unsafe_get st.faulty (a4 + w) in
        let b = Bigarray.Array1.unsafe_get st.faulty (b4 + w) in
        let v =
          if op = Gate.op_and then Int64.logand a b
          else if op = Gate.op_nand then Int64.lognot (Int64.logand a b)
          else if op = Gate.op_or then Int64.logor a b
          else if op = Gate.op_nor then Int64.lognot (Int64.logor a b)
          else if op = Gate.op_xor then Int64.logxor a b
          else Int64.lognot (Int64.logxor a b)
        in
        Bigarray.Array1.unsafe_set st.out (4 + w) v
      done
    end
    else if len = 1 then begin
      let a4 = Array.unsafe_get k.fanin off * 4 in
      let inv = Gate.op_inverts op in
      for w = 0 to 3 do
        let a = Bigarray.Array1.unsafe_get st.faulty (a4 + w) in
        Bigarray.Array1.unsafe_set st.out (4 + w)
          (if inv then Int64.lognot a else a)
      done
    end
    else begin
      let last = off + len - 1 in
      for w = 0 to 3 do
        let s0 = Array.unsafe_get k.fanin off * 4 in
        let v =
          if op <= Gate.op_nand then begin
            let acc = ref (Bigarray.Array1.unsafe_get st.faulty (s0 + w)) in
            for j = off + 1 to last do
              acc :=
                Int64.logand !acc
                  (Bigarray.Array1.unsafe_get st.faulty
                     ((Array.unsafe_get k.fanin j * 4) + w))
            done;
            if op = Gate.op_nand then Int64.lognot !acc else !acc
          end
          else if op <= Gate.op_nor then begin
            let acc = ref (Bigarray.Array1.unsafe_get st.faulty (s0 + w)) in
            for j = off + 1 to last do
              acc :=
                Int64.logor !acc
                  (Bigarray.Array1.unsafe_get st.faulty
                     ((Array.unsafe_get k.fanin j * 4) + w))
            done;
            if op = Gate.op_nor then Int64.lognot !acc else !acc
          end
          else begin
            let acc = ref (Bigarray.Array1.unsafe_get st.faulty (s0 + w)) in
            for j = off + 1 to last do
              acc :=
                Int64.logxor !acc
                  (Bigarray.Array1.unsafe_get st.faulty
                     ((Array.unsafe_get k.fanin j * 4) + w))
            done;
            if op = Gate.op_xnor then Int64.lognot !acc else !acc
          end
        in
        Bigarray.Array1.unsafe_set st.out (4 + w) v
      done
    end;
    let o4 = id * 4 in
    let d0 =
      Int64.logand
        (Int64.logxor
           (Bigarray.Array1.unsafe_get good o4)
           (Bigarray.Array1.unsafe_get st.out 4))
        (Bigarray.Array1.unsafe_get st.vmask 0)
    in
    let d1 =
      Int64.logand
        (Int64.logxor
           (Bigarray.Array1.unsafe_get good (o4 + 1))
           (Bigarray.Array1.unsafe_get st.out 5))
        (Bigarray.Array1.unsafe_get st.vmask 1)
    in
    let d2 =
      Int64.logand
        (Int64.logxor
           (Bigarray.Array1.unsafe_get good (o4 + 2))
           (Bigarray.Array1.unsafe_get st.out 6))
        (Bigarray.Array1.unsafe_get st.vmask 2)
    in
    let d3 =
      Int64.logand
        (Int64.logxor
           (Bigarray.Array1.unsafe_get good (o4 + 3))
           (Bigarray.Array1.unsafe_get st.out 7))
        (Bigarray.Array1.unsafe_get st.vmask 3)
    in
    if
      Int64.logor (Int64.logor d0 d1) (Int64.logor d2 d3) <> 0L
    then begin
      for w = 0 to 3 do
        Bigarray.Array1.unsafe_set st.faulty (o4 + w)
          (Bigarray.Array1.unsafe_get st.out (4 + w))
      done;
      touch st id;
      if Array.unsafe_get is_output id then begin
        Bigarray.Array1.unsafe_set st.out 0
          (Int64.logor (Bigarray.Array1.unsafe_get st.out 0) d0);
        Bigarray.Array1.unsafe_set st.out 1
          (Int64.logor (Bigarray.Array1.unsafe_get st.out 1) d1);
        Bigarray.Array1.unsafe_set st.out 2
          (Int64.logor (Bigarray.Array1.unsafe_get st.out 2) d2);
        Bigarray.Array1.unsafe_set st.out 3
          (Int64.logor (Bigarray.Array1.unsafe_get st.out 3) d3)
      end;
      push_fanouts st id
    end
  done;
  (* restore the four words of every touched node *)
  for i = 0 to st.n_touched - 1 do
    let id4 = Array.unsafe_get st.touched_ids i * 4 in
    for w = 0 to 3 do
      Bigarray.Array1.unsafe_set st.faulty (id4 + w)
        (Bigarray.Array1.unsafe_get good (id4 + w))
    done
  done;
  st.n_touched <- 0;
  st.cur_level <- 0

(* Critical-path trace of one fault to its FFR stem: seed the local fault
   effect, then walk the unique single-fanout chain, ANDing in each gate's
   boolean difference with respect to the incoming line (one substituted
   gate evaluation per step — exact inside an FFR, where side inputs always
   carry good values).  The traced difference words land in
   [st.out.{0..3}]; the caller ANDs them with the stem's observability. *)
let trace_fault4 st ~(good : Kernel.words) (f : Stuck_at.t) =
  let k = st.kernel in
  let stuck_word = if Stuck_at.polarity_bool f.polarity then -1L else 0L in
  let cur = ref 0 in
  (match f.site with
  | Stuck_at.Stem id ->
      let i4 = id * 4 in
      for w = 0 to 3 do
        Bigarray.Array1.unsafe_set st.out w
          (Int64.logand
             (Int64.logxor
                (Bigarray.Array1.unsafe_get good (i4 + w))
                stuck_word)
             (Bigarray.Array1.unsafe_get st.vmask w))
      done;
      cur := id
  | Stuck_at.Branch { gate; pin } ->
      let off = Array.unsafe_get k.fanin_off gate in
      let len = Array.unsafe_get k.fanin_off (gate + 1) - off in
      for j = 0 to len - 1 do
        let s4 = Array.unsafe_get k.fanin (off + j) * 4 in
        for w = 0 to 3 do
          Bigarray.Array1.unsafe_set st.ins ((j * 4) + w)
            (Bigarray.Array1.unsafe_get good (s4 + w))
        done
      done;
      for w = 0 to 3 do
        Bigarray.Array1.unsafe_set st.ins ((pin * 4) + w) stuck_word
      done;
      st.gate_evaluations <- st.gate_evaluations + 4;
      fold_ins4 st len (Array.unsafe_get k.opcode gate);
      let g4 = gate * 4 in
      for w = 0 to 3 do
        Bigarray.Array1.unsafe_set st.out w
          (Int64.logand
             (Int64.logxor
                (Bigarray.Array1.unsafe_get good (g4 + w))
                (Bigarray.Array1.unsafe_get st.out (4 + w)))
             (Bigarray.Array1.unsafe_get st.vmask w))
      done;
      cur := gate);
  while
    Int64.logor
      (Int64.logor
         (Bigarray.Array1.unsafe_get st.out 0)
         (Bigarray.Array1.unsafe_get st.out 1))
      (Int64.logor
         (Bigarray.Array1.unsafe_get st.out 2)
         (Bigarray.Array1.unsafe_get st.out 3))
    <> 0L
    && Array.unsafe_get k.ffr_stem !cur <> !cur
  do
    let nxt = Array.unsafe_get k.fanout (Array.unsafe_get k.fanout_off !cur) in
    let off = Array.unsafe_get k.fanin_off nxt in
    let len = Array.unsafe_get k.fanin_off (nxt + 1) - off in
    for j = 0 to len - 1 do
      let s = Array.unsafe_get k.fanin (off + j) in
      let s4 = s * 4 in
      if s = !cur then
        for w = 0 to 3 do
          Bigarray.Array1.unsafe_set st.ins ((j * 4) + w)
            (Int64.lognot (Bigarray.Array1.unsafe_get good (s4 + w)))
        done
      else
        for w = 0 to 3 do
          Bigarray.Array1.unsafe_set st.ins ((j * 4) + w)
            (Bigarray.Array1.unsafe_get good (s4 + w))
        done
    done;
    st.gate_evaluations <- st.gate_evaluations + 4;
    fold_ins4 st len (Array.unsafe_get k.opcode nxt);
    let n4 = nxt * 4 in
    for w = 0 to 3 do
      Bigarray.Array1.unsafe_set st.out w
        (Int64.logand
           (Bigarray.Array1.unsafe_get st.out w)
           (Int64.logxor
              (Bigarray.Array1.unsafe_get good (n4 + w))
              (Bigarray.Array1.unsafe_get st.out (4 + w))))
    done;
    cur := nxt
  done

(* --- drivers ------------------------------------------------------------- *)

let stats_of_escratches ~drop_detected first_detection scratches =
  let base =
    Array.fold_left
      (fun acc st ->
        Stats.add acc
          { Stats.zero with
            gate_evaluations = st.gate_evaluations;
            events = st.events;
            faults_inferred = st.faults_inferred;
            stem_simulations = st.stem_simulations })
      Stats.zero scratches
  in
  { base with
    Stats.faults_dropped = dropped_of ~drop_detected first_detection }

(* [obs4] must be annotated: an unannotated bigarray parameter generalizes
   to a polymorphic kind/layout, compiling every access through the generic
   boxed path. *)
let decide_wide st k (obs4 : Kernel.words) (f : Stuck_at.t) ~good =
  trace_fault4 st ~good f;
  let si4 = Array.unsafe_get k.Kernel.ffr_index (site_node f) * 4 in
  for w = 0 to 3 do
    Bigarray.Array1.unsafe_set st.out w
      (Int64.logand
         (Bigarray.Array1.unsafe_get st.out w)
         (Bigarray.Array1.unsafe_get obs4 (si4 + w)))
  done

(* The one wide driver, serial and pooled alike: [run_tasks ~tasks f] runs
   [f 0 .. f (tasks - 1)] — in a loop on the calling domain, or over a
   {!Parallel} pool of [workers].  Per block: collect the FFR stems hosting
   a live fault (deduplicated against [stamp]); phase A computes one
   observability word group per stem, stems sharded contiguously (workers
   write disjoint [obs4] slots; the pool barrier publishes them); phase B
   decides every live fault by trace AND observability, faults sharded
   contiguously and fixed for the run.  Each fault index is written
   ([first_detection], [live], its buffered detection words) only by its
   owning worker, and events are replayed after the barrier in the serial
   order, so the result — [stats] totals included, since every stem is
   toggled exactly once per block — does not depend on [workers]. *)
let run_wide ~drop_detected ~on_detect ~workers ~run_tasks (c : Circuit.t)
    ~faults ~vectors =
  let k = Kernel.of_circuit c in
  let n_faults = Array.length faults in
  let shards = min workers n_faults in
  let first_detection = Array.make n_faults None in
  let live = Array.make n_faults true in
  let is_output = output_map c in
  let scratches = Array.init shards (fun _ -> make_escratch k) in
  let good = Kernel.create_words4 k in
  let obs4 = Kernel.alloc (4 * max 1 k.n_ffrs) in
  let stamp = Array.make (max 1 k.n_ffrs) (-1) in
  let needed = Array.make (max 1 k.n_ffrs) 0 in
  (* Four buffered words per fault; a dropped fault stores only its first
     non-empty sub-word, so the replay below reproduces the 64-pattern
     stream. *)
  let detect_words =
    match on_detect with Some _ -> Array.make (4 * n_faults) 0L | None -> [||]
  in
  let has_callback = match on_detect with Some _ -> true | None -> false in
  let shard_bounds s = (s * n_faults / shards, (s + 1) * n_faults / shards) in
  let n_vectors = Array.length vectors in
  let n_blocks = (n_vectors + 255) / 256 in
  for block = 0 to n_blocks - 1 do
    let base = block * 256 in
    let count = min 256 (n_vectors - base) in
    Sim2.load_patterns4 k good vectors ~base ~count;
    Sim2.run_flat4 k good;
    Array.iter (fun st -> set_vmasks st ~count) scratches;
    let n_needed = ref 0 in
    for fi = 0 to n_faults - 1 do
      if live.(fi) then begin
        let si = k.ffr_index.(site_node faults.(fi)) in
        if stamp.(si) <> block then begin
          stamp.(si) <- block;
          needed.(!n_needed) <- si;
          incr n_needed
        end
      end
    done;
    if !n_needed > 0 then begin
      let stem_shards = min shards !n_needed in
      run_tasks ~tasks:stem_shards (fun s ->
          let st = scratches.(s) in
          resident_reset st good;
          let lo = s * !n_needed / stem_shards in
          let hi = (s + 1) * !n_needed / stem_shards in
          for i = lo to hi - 1 do
            let si = needed.(i) in
            simulate_toggle4 st ~is_output ~good k.ffr_stems.(si);
            for w = 0 to 3 do
              Bigarray.Array1.unsafe_set obs4 ((si * 4) + w)
                (Bigarray.Array1.unsafe_get st.out w)
            done
          done)
    end;
    run_tasks ~tasks:shards (fun s ->
        let st = scratches.(s) in
        let lo, hi = shard_bounds s in
        for fi = lo to hi - 1 do
          if live.(fi) then begin
            st.faults_inferred <- st.faults_inferred + 1;
            decide_wide st k obs4 faults.(fi) ~good;
            (* Sub-words in order; a dropped fault stops at its first
               detecting one.  No let-binding of the word: a binding with a
               boxed use (the [record_first] argument, the array store)
               would box on every iteration, detected or not. *)
            let w = ref 0 in
            while !w < 4 do
              if Bigarray.Array1.unsafe_get st.out !w <> 0L then begin
                (match first_detection.(fi) with
                | None ->
                    record_first first_detection fi ~base:(base + (!w * 64))
                      (Bigarray.Array1.unsafe_get st.out !w)
                | Some _ -> ());
                if has_callback then
                  detect_words.((fi * 4) + !w) <-
                    Bigarray.Array1.unsafe_get st.out !w;
                if drop_detected then begin
                  live.(fi) <- false;
                  w := 4
                end
              end;
              incr w
            done
          end
        done);
    (* replay in the 64-pattern order: sub-word major, fault minor *)
    match on_detect with
    | Some callback ->
        for w = 0 to 3 do
          for fi = 0 to n_faults - 1 do
            let dw = detect_words.((fi * 4) + w) in
            if dw <> 0L then begin
              fire_events callback ~base:(base + (w * 64))
                ~count:(sub_count ~count w) ~fault_index:fi dw;
              detect_words.((fi * 4) + w) <- 0L
            end
          done
        done
    | None -> ()
  done;
  let gate_evaluations =
    Array.fold_left (fun acc st -> acc + st.gate_evaluations) 0 scratches
  in
  { faults; first_detection; vectors_applied = n_vectors; gate_evaluations;
    stats = stats_of_escratches ~drop_detected first_detection scratches }

(* --- engine dispatch ------------------------------------------------------ *)

let serial_tasks ~tasks f =
  for s = 0 to tasks - 1 do
    f s
  done

(* Unvalidated entry points: [run_ndet] validates once and then calls these
   once per chunk. *)
let run_serial ~engine ~drop_detected ~on_detect c ~faults ~vectors =
  match engine with
  | Reference -> Reference.run ~drop_detected ?on_detect c ~faults ~vectors
  | Wide ->
      run_wide ~drop_detected ~on_detect ~workers:1 ~run_tasks:serial_tasks c
        ~faults ~vectors

(* The reference engine has no pooled driver: it runs serially whatever
   the pool, with the same results, counters and event stream.  For the
   wide engine an empty fault universe returns at once (no good-machine
   simulation, and the driver's shard clamp stays >= 1); a one-worker pool
   runs serially; a [domains] request wider than the universe is clamped
   before any domain is spawned — the extra workers could never hold a
   fault, and an oversized request would hit the runtime's domain limit. *)
let run_pooled ~engine ~drop_detected ~on_detect ?domains ?pool c ~faults
    ~vectors =
  let serial () =
    run_serial ~engine ~drop_detected ~on_detect c ~faults ~vectors
  in
  let dispatch pool =
    if Parallel.size pool = 1 then serial ()
    else
      run_wide ~drop_detected ~on_detect ~workers:(Parallel.size pool)
        ~run_tasks:(Parallel.run pool) c ~faults ~vectors
  in
  match engine with
  | Reference -> serial ()
  | Wide when Array.length faults = 0 ->
      { faults; first_detection = [||]; vectors_applied = Array.length vectors;
        gate_evaluations = 0; stats = Stats.zero }
  | Wide -> (
      match pool with
      | Some pool -> dispatch pool
      | None ->
          let domains =
            Option.map (fun d -> max 1 (min d (Array.length faults))) domains
          in
          Parallel.with_pool ?domains dispatch)

let run_with ~engine ?(drop_detected = true) ?on_detect c ~faults ~vectors =
  check_faults c faults;
  run_serial ~engine ~drop_detected ~on_detect c ~faults ~vectors

let run_parallel_with ~engine ?(drop_detected = true) ?on_detect ?domains ?pool
    c ~faults ~vectors =
  check_faults c faults;
  run_pooled ~engine ~drop_detected ~on_detect ?domains ?pool c ~faults
    ~vectors

let run ?drop_detected ?on_detect c ~faults ~vectors =
  run_with ~engine:Wide ?drop_detected ?on_detect c ~faults ~vectors

let run_parallel ?drop_detected ?on_detect ?domains ?pool c ~faults ~vectors =
  run_parallel_with ~engine:Wide ?drop_detected ?on_detect ?domains ?pool c
    ~faults ~vectors

let detected_count r =
  Array.fold_left
    (fun acc d -> match d with Some _ -> acc + 1 | None -> acc)
    0 r.first_detection

let coverage r =
  if Array.length r.faults = 0 then 1.0
  else float_of_int (detected_count r) /. float_of_int (Array.length r.faults)

let detects_fault (c : Circuit.t) (f : Stuck_at.t) vector =
  let module Sim3 = Dl_logic.Sim3 in
  let module Ternary = Dl_logic.Ternary in
  let pi = Array.map Ternary.of_bool vector in
  let good = Sim3.outputs_of c (Sim3.run c pi) in
  let bad =
    Sim3.outputs_of c
      (Sim3.run_with_fault c
         ~site:(Stuck_at.to_sim3_site f.site)
         ~stuck:(Stuck_at.polarity_bool f.polarity)
         pi)
  in
  let differs = ref false in
  Array.iteri
    (fun i g ->
      match (g, bad.(i)) with
      | Ternary.V0, Ternary.V1 | Ternary.V1, Ternary.V0 -> differs := true
      | _ -> ())
    good;
  !differs

(* --- multi-detect (drop-after-n) driver ----------------------------------- *)

type ndet = {
  drop_after : int;
  counts : int array;
  detections : int array;
  vectors_applied : int;
  gate_evaluations : int;
  stats : Stats.t;
}

(* The chunked driver below relies on the engine-independence lemma: running
   any engine with [drop_detected:false] over a block-width-aligned chunk of
   the vector sequence, restricted to the faults still live at the chunk
   boundary, produces exactly the detection events the full dropping run
   would have produced for those faults in that window.  Dropping is a
   performance optimisation, never a semantic one, so at [drop_after:1] the
   recorded first detections are bit-identical to [run ~drop_detected:true]
   for every engine. *)
let run_ndet ?(engine = Wide) ?domains ?pool ?on_detect ~drop_after
    (c : Circuit.t) ~faults ~vectors =
  if drop_after < 1 then
    invalid_arg "Fault_sim.run_ndet: drop_after must be >= 1";
  check_faults c faults;
  let n_faults = Array.length faults in
  let n_vectors = Array.length vectors in
  let counts = Array.make n_faults 0 in
  let detections = Array.make (n_faults * drop_after) (-1) in
  let stats = ref Stats.zero in
  let gate_evaluations = ref 0 in
  (* chunk at the engine's native block width so the live set is refreshed
     exactly where the dropping engines refresh theirs *)
  let chunk_width = match engine with Wide -> 256 | Reference -> 64 in
  let run_chunk pool_opt ~live ~base ~count =
    let sub_faults = Array.map (fun i -> faults.(i)) live in
    let sub_vectors = Array.sub vectors base count in
    let on_detect_sub ~fault_index ~vector_index =
      let fi = live.(fault_index) in
      let k = counts.(fi) in
      if k < drop_after then begin
        counts.(fi) <- k + 1;
        detections.((fi * drop_after) + k) <- base + vector_index;
        match on_detect with
        | Some callback ->
            callback ~fault_index:fi ~vector_index:(base + vector_index)
        | None -> ()
      end
    in
    let r =
      match pool_opt with
      | Some pool ->
          run_pooled ~engine ~drop_detected:false
            ~on_detect:(Some on_detect_sub) ~pool c ~faults:sub_faults
            ~vectors:sub_vectors
      | None ->
          run_serial ~engine ~drop_detected:false
            ~on_detect:(Some on_detect_sub) c ~faults:sub_faults
            ~vectors:sub_vectors
    in
    stats := Stats.add !stats r.stats;
    gate_evaluations := !gate_evaluations + r.gate_evaluations
  in
  let drive pool_opt =
    let live = ref (Array.init n_faults (fun i -> i)) in
    let base = ref 0 in
    while !base < n_vectors && Array.length !live > 0 do
      let count = min chunk_width (n_vectors - !base) in
      run_chunk pool_opt ~live:!live ~base:!base ~count;
      base := !base + count;
      if !base < n_vectors then
        live :=
          Array.of_list
            (List.filter
               (fun i -> counts.(i) < drop_after)
               (Array.to_list !live))
    done
  in
  (match (pool, domains) with
  | Some pool, _ -> drive (Some pool)
  | None, Some d when d > 1 && engine = Wide ->
      Parallel.with_pool ~domains:d (fun pool -> drive (Some pool))
  | None, _ -> drive None);
  let dropped =
    Array.fold_left (fun acc k -> if k >= drop_after then acc + 1 else acc) 0
      counts
  in
  {
    drop_after;
    counts;
    detections;
    vectors_applied = n_vectors;
    gate_evaluations = !gate_evaluations;
    stats = { !stats with faults_dropped = dropped };
  }

let ndet_kth_detection nd ~k =
  if k < 1 || k > nd.drop_after then
    invalid_arg "Fault_sim.ndet_kth_detection: k out of range";
  Array.init (Array.length nd.counts) (fun i ->
      if nd.counts.(i) >= k then Some nd.detections.((i * nd.drop_after) + k - 1)
      else None)

let ndet_first_detection nd = ndet_kth_detection nd ~k:1
