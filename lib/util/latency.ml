(* Geometric buckets: bucket i covers [lo * r^i, lo * r^(i+1)) with
   lo = 1e-3 ms (1 µs) and r chosen so 1024 buckets span to 3e5 ms
   (5 minutes): r = (3e5 / 1e-3)^(1/1024) ≈ 1.0192, i.e. ~2.3% relative
   resolution at every scale — ample for p50/p99/p999 over service times
   that range from microseconds (cache hits) to minutes (cold c880s). *)

let buckets = 1024
let lo_ms = 1e-3
let hi_ms = 3e5
let log_lo = log lo_ms
let inv_log_r = float_of_int buckets /. (log hi_ms -. log_lo)

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : float;
  mutable max : float;
}

let create () =
  { counts = Array.make buckets 0; total = 0; sum = 0.0; max = 0.0 }

let bucket_of ms =
  if Float.is_nan ms then buckets - 1
  else if ms <= lo_ms then 0
  else if ms >= hi_ms then buckets - 1
  else
    let i = int_of_float ((log ms -. log_lo) *. inv_log_r) in
    max 0 (min (buckets - 1) i)

(* Upper edge: a percentile answer is then >= the true sample's value. *)
let edge_of i =
  exp (log_lo +. (float_of_int (i + 1) /. inv_log_r))

let add t ms =
  t.counts.(bucket_of ms) <- t.counts.(bucket_of ms) + 1;
  t.total <- t.total + 1;
  if Float.is_finite ms then begin
    t.sum <- t.sum +. ms;
    if ms > t.max then t.max <- ms
  end

let count t = t.total
let max_ms t = t.max
let mean_ms t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total

let percentile t q =
  if t.total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    (* nearest-rank: the ceil(q*n)-th smallest observation *)
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
    let seen = ref 0 in
    let result = ref t.max in
    (try
       for i = 0 to buckets - 1 do
         seen := !seen + t.counts.(i);
         if !seen >= rank then begin
           (* Cap by the exact max so p100 never overstates the tail. *)
           result := Float.min (edge_of i) t.max;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let merge dst src =
  for i = 0 to buckets - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.total <- dst.total + src.total;
  dst.sum <- dst.sum +. src.sum;
  if src.max > dst.max then dst.max <- src.max
