type t = {
  faults : int;
  total_weight : float;
  (* Vector indices of the detection events, sorted. *)
  events : int array;
  (* cumulative.(i): weight of events.(0..i), summed in event order (the
     order [Reference.make]'s heapsort leaves the events in, so every
     query is bit-identical to it). *)
  cumulative : float array;
}

(* A port of [Stdlib.Array.sort]'s ternary heapsort to ints compared by
   [x lsr shift]: it makes the same comparisons in the same order, so it
   leaves equal keys in the same order as
   [Array.sort (fun x y -> compare (x lsr shift) (y lsr shift))], without
   the closure calls and the write barrier of a generic sort. *)
let sort_packed ~shift a =
  let key i = a.(i) lsr shift in
  (* The largest of node [i]'s three children in a heap of length [l], or
     -1 when [i] has none (the stdlib's [Bottom i]). *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if key i31 < key (i31 + 1) then i31 + 1 else i31 in
      if key x < key (i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && key i31 < key (i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickle l i e =
    let j = maxson l i in
    if j >= 0 && key j > e lsr shift then begin
      a.(i) <- a.(j);
      trickle l j e
    end
    else a.(i) <- e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      a.(i) <- a.(j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if key father < e lsr shift then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Bits that hold every fault index below [n]. *)
let index_width n =
  let rec go b = if (n - 1) lsr b = 0 then b else go (b + 1) in
  go 0

(* Unit weights: every cumulative sum is an exact integer, so the order of
   equal indices cannot be observed and a counting sort will do.  A sparse
   index range falls back to the heapsort. *)
let unit_events first_detection m max_k =
  let events = Array.make m 0 in
  if max_k <= (4 * m) + 1024 then begin
    let counts = Array.make (max_k + 1) 0 in
    Array.iter (function Some k -> counts.(k) <- counts.(k) + 1 | None -> ())
      first_detection;
    let pos = ref 0 in
    Array.iteri
      (fun k c ->
        Array.fill events !pos c k;
        pos := !pos + c)
      counts
  end
  else begin
    let pos = ref 0 in
    Array.iter
      (function
        | Some k ->
            events.(!pos) <- k;
            incr pos
        | None -> ())
      first_detection;
    sort_packed ~shift:0 events
  end;
  events

let make ?weights first_detection =
  let n = Array.length first_detection in
  let b = index_width (max n 1) in
  let m = ref 0 and max_k = ref 0 in
  Array.iter
    (function
      | Some k ->
          if k < 0 then invalid_arg "Coverage.make: negative vector index";
          if k > max_int lsr b then invalid_arg "Coverage.make: vector index too large";
          incr m;
          if k > !max_k then max_k := k
      | None -> ())
    first_detection;
  let m = !m in
  match weights with
  | None ->
      let cumulative = Array.make m 0.0 in
      for i = 0 to m - 1 do
        cumulative.(i) <- float_of_int (i + 1)
      done;
      { faults = n;
        total_weight = float_of_int n;
        events = unit_events first_detection m !max_k;
        cumulative }
  | Some w ->
      if Array.length w <> n then invalid_arg "Coverage.make: weights length mismatch";
      for i = 0 to n - 1 do
        if not (w.(i) >= 0.0) then invalid_arg "Coverage.make: negative or NaN weight"
      done;
      (* Packed [(k lsl b) lor i] in the order [Reference.make] hands to
         [Array.sort] (descending fault index), so [sort_packed] leaves
         equal indices in its order and the sums round the same way. *)
      let packed = Array.make m 0 in
      let pos = ref 0 in
      for i = n - 1 downto 0 do
        match first_detection.(i) with
        | Some k ->
            packed.(!pos) <- (k lsl b) lor i;
            incr pos
        | None -> ()
      done;
      sort_packed ~shift:b packed;
      let mask = (1 lsl b) - 1 in
      let cumulative = Array.make m 0.0 in
      let acc = ref 0.0 in
      for j = 0 to m - 1 do
        acc := !acc +. w.(packed.(j) land mask);
        cumulative.(j) <- !acc;
        packed.(j) <- packed.(j) lsr b
      done;
      { faults = n; total_weight = Dl_util.Stats.total w; events = packed; cumulative }

let total_faults t = t.faults
let total_weight t = t.total_weight

(* Number of events with vector index < k: binary search for the first
   event at index >= k over the sorted events array. *)
let events_before t k =
  let lo = ref 0 and hi = ref (Array.length t.events) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.events.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let at t k =
  if t.total_weight = 0.0 then 1.0
  else begin
    let m = events_before t k in
    if m = 0 then 0.0 else t.cumulative.(m - 1) /. t.total_weight
  end

let final t =
  if t.total_weight = 0.0 then 1.0
  else begin
    let n = Array.length t.cumulative in
    if n = 0 then 0.0 else t.cumulative.(n - 1) /. t.total_weight
  end

let log_spaced ~max ~points =
  if max < 1 then invalid_arg "Coverage.log_spaced: need max >= 1";
  if points < 1 then invalid_arg "Coverage.log_spaced: need points >= 1";
  let raw =
    Array.init points (fun i ->
        let frac =
          if points = 1 then 1.0 else float_of_int i /. float_of_int (points - 1)
        in
        int_of_float (Float.round (exp (frac *. log (float_of_int max)))))
  in
  let seen = Hashtbl.create points in
  let out = ref [] in
  Array.iter
    (fun k ->
      let k = Stdlib.max 1 (Stdlib.min max k) in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        out := k :: !out
      end)
    raw;
  if not (Hashtbl.mem seen max) then out := max :: !out;
  let arr = Array.of_list !out in
  Array.sort Stdlib.compare arr;
  arr

let detections_in_order t =
  if t.total_weight = 0.0 then [||]
  else Array.mapi (fun i k -> (k, t.cumulative.(i) /. t.total_weight)) t.events

module Reference = struct
  type t = {
    weights : float array;
    total_weight : float;
    (* Detection events sorted by vector index: (index, weight). *)
    events : (int * float) array;
    (* cumulative.(i): weight of events.(0..i), summed in event order (the
       same order the old linear scan used, so queries are bit-identical). *)
    cumulative : float array;
  }

  let make ?weights first_detection =
    let n = Array.length first_detection in
    let weights =
      match weights with
      | None -> Array.make n 1.0
      | Some w ->
          if Array.length w <> n then
            invalid_arg "Coverage.make: weights length mismatch";
          Array.iter
            (fun x -> if x < 0.0 then invalid_arg "Coverage.make: negative weight")
            w;
          Array.copy w
    in
    let events = ref [] in
    Array.iteri
      (fun i d ->
        match d with Some k -> events := (k, weights.(i)) :: !events | None -> ())
      first_detection;
    let events = Array.of_list !events in
    Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) events;
    let total_weight = Dl_util.Stats.total weights in
    let acc = ref 0.0 in
    let cumulative =
      Array.map
        (fun (_, w) ->
          acc := !acc +. w;
          !acc)
        events
    in
    { weights; total_weight; events; cumulative }

  let total_faults t = Array.length t.weights
  let total_weight t = t.total_weight

  let events_before t k =
    let lo = ref 0 and hi = ref (Array.length t.events) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.events.(mid) < k then lo := mid + 1 else hi := mid
    done;
    !lo

  let at t k =
    if t.total_weight = 0.0 then 1.0
    else begin
      let m = events_before t k in
      if m = 0 then 0.0 else t.cumulative.(m - 1) /. t.total_weight
    end

  let final t =
    if t.total_weight = 0.0 then 1.0
    else begin
      let n = Array.length t.cumulative in
      if n = 0 then 0.0 else t.cumulative.(n - 1) /. t.total_weight
    end

  let detections_in_order t =
    if t.total_weight = 0.0 then [||]
    else
      Array.mapi
        (fun i (idx, _) -> (idx, t.cumulative.(i) /. t.total_weight))
        t.events
end
