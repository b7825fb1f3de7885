let clamp ~lo ~hi x = Float.max lo (Float.min hi x)
let clamp01 x = clamp ~lo:0.0 ~hi:1.0 x

let pow1m y e =
  if y < 0.0 then invalid_arg "Numerics.pow1m: negative base";
  if y = 0.0 then (if e = 0.0 then 1.0 else 0.0)
  else if e = 0.0 then 1.0
  else if e = 1.0 then y
  else exp (e *. log y)

let check_bracket name f lo hi =
  if not (lo <= hi) then invalid_arg (name ^ ": need lo <= hi");
  let flo = f lo and fhi = f hi in
  if flo = 0.0 then `Root lo
  else if fhi = 0.0 then `Root hi
  else if flo *. fhi > 0.0 then invalid_arg (name ^ ": no sign change over bracket")
  else `Bracket (flo, fhi)

let bisect ?(tol = 1e-12) ?(max_iter = 200) ~f lo hi =
  match check_bracket "Numerics.bisect" f lo hi with
  | `Root r -> r
  | `Bracket (flo, _) ->
      let rec loop lo hi flo iter =
        let mid = 0.5 *. (lo +. hi) in
        if hi -. lo <= tol || iter >= max_iter then mid
        else begin
          let fm = f mid in
          if fm = 0.0 then mid
          else if flo *. fm < 0.0 then loop lo mid flo (iter + 1)
          else loop mid hi fm (iter + 1)
        end
      in
      loop lo hi flo 0

let integrate ?(steps = 1024) ~f lo hi =
  if steps <= 0 then invalid_arg "Numerics.integrate: steps must be positive";
  let n = if steps mod 2 = 0 then steps else steps + 1 in
  let h = (hi -. lo) /. float_of_int n in
  let acc = ref (f lo +. f hi) in
  for i = 1 to n - 1 do
    let x = lo +. (h *. float_of_int i) in
    acc := !acc +. (if i mod 2 = 1 then 4.0 else 2.0) *. f x
  done;
  !acc *. h /. 3.0

let ppm x = x *. 1e6
