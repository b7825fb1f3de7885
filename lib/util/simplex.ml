type result = {
  xmin : float array;
  fmin : float;
  iterations : int;
  converged : bool;
}

let alpha = 1.0 (* reflection *)
let gamma = 2.0 (* expansion *)
let rho = 0.5 (* contraction *)
let sigma = 0.5 (* shrink *)

(* The bookkeeping works in buffers allocated once per descent: the
   vertices are updated in place, and trial points are built in scratch
   arrays that are copied into the worst vertex when accepted.  [f] must
   not keep its argument. *)
let minimize ?(tol = 1e-10) ?(max_iter = 2000) ?(step = 0.1) ~f x0 =
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Simplex.minimize: empty start point";
  (* n+1 vertices: x0 plus one perturbation per coordinate. *)
  let vertex i =
    if i = 0 then Array.copy x0
    else begin
      let v = Array.copy x0 in
      let j = i - 1 in
      let delta =
        let rel = step *. Float.abs v.(j) in
        if rel > 0.0 then rel else step
      in
      v.(j) <- v.(j) +. delta;
      v
    end
  in
  let xs = Array.init (n + 1) vertex in
  let fs = Array.map f xs in
  (* Sort the vertices by value: [Array.sort] on an index array, so ties
     keep the order that sort gives them. *)
  let idx = Array.make (n + 1) 0 in
  let by_value a b = compare fs.(a) fs.(b) in
  let xs' = Array.copy xs and fs' = Array.copy fs in
  let order () =
    for i = 0 to n do
      idx.(i) <- i
    done;
    Array.sort by_value idx;
    for i = 0 to n do
      xs'.(i) <- xs.(idx.(i));
      fs'.(i) <- fs.(idx.(i))
    done;
    Array.blit xs' 0 xs 0 (n + 1);
    Array.blit fs' 0 fs 0 (n + 1)
  in
  let c = Array.make n 0.0 in
  let centroid () =
    (* Centroid of all vertices except the worst (last after ordering). *)
    Array.fill c 0 n 0.0;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        c.(j) <- c.(j) +. (xs.(i).(j) /. float_of_int n)
      done
    done
  in
  let xr = Array.make n 0.0 and xe = Array.make n 0.0 and xc = Array.make n 0.0 in
  let combine dst x coef =
    for j = 0 to n - 1 do
      dst.(j) <- c.(j) +. (coef *. (c.(j) -. x.(j)))
    done
  in
  let replace_worst x fx =
    Array.blit x 0 xs.(n) 0 n;
    fs.(n) <- fx
  in
  let diameter () =
    let d = ref 0.0 in
    for i = 1 to n do
      for j = 0 to n - 1 do
        d := Float.max !d (Float.abs (xs.(i).(j) -. xs.(0).(j)))
      done
    done;
    !d
  in
  let iterations = ref 0 in
  order ();
  let converged = ref (diameter () <= tol) in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    centroid ();
    combine xr xs.(n) alpha;
    let fr = f xr in
    if fr < fs.(0) then begin
      combine xe xs.(n) gamma;
      let fe = f xe in
      if fe < fr then replace_worst xe fe else replace_worst xr fr
    end
    else if fr < fs.(n - 1) then replace_worst xr fr
    else begin
      (* Contract toward the centroid; on failure shrink toward the best. *)
      if fr < fs.(n) then combine xc xs.(n) (rho *. alpha)
      else
        for j = 0 to n - 1 do
          xc.(j) <- c.(j) -. (rho *. (c.(j) -. xs.(n).(j)))
        done;
      let fc = f xc in
      if fc < Float.min fr fs.(n) then replace_worst xc fc
      else
        for i = 1 to n do
          let x = xs.(i) in
          for j = 0 to n - 1 do
            x.(j) <- xs.(0).(j) +. (sigma *. (x.(j) -. xs.(0).(j)))
          done;
          fs.(i) <- f x
        done
    end;
    order ();
    if diameter () <= tol then converged := true
  done;
  { xmin = Array.copy xs.(0); fmin = fs.(0); iterations = !iterations; converged = !converged }

let minimize_bounded ?tol ?max_iter ~f ~lo ~hi x0 =
  let n = Array.length x0 in
  if Array.length lo <> n || Array.length hi <> n then
    invalid_arg "Simplex.minimize_bounded: bound arrays must match x0";
  Array.iteri
    (fun i l -> if l > hi.(i) then invalid_arg "Simplex.minimize_bounded: lo > hi")
    lo;
  let project x = Array.mapi (fun i v -> Numerics.clamp ~lo:lo.(i) ~hi:hi.(i) v) x in
  let px = Array.make n 0.0 in
  let f_clamped x =
    for i = 0 to n - 1 do
      px.(i) <- Numerics.clamp ~lo:lo.(i) ~hi:hi.(i) x.(i)
    done;
    f px
  in
  let x0 = project x0 in
  let r = minimize ?tol ?max_iter ~f:f_clamped x0 in
  { r with xmin = project r.xmin; fmin = f (project r.xmin) }
