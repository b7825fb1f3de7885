type layer = Diffusion_n | Diffusion_p | Poly | Metal1 | Metal2 | Contact | Via

let layer_name = function
  | Diffusion_n -> "ndiff"
  | Diffusion_p -> "pdiff"
  | Poly -> "poly"
  | Metal1 -> "metal1"
  | Metal2 -> "metal2"
  | Contact -> "contact"
  | Via -> "via"

type rect = { layer : layer; x0 : int; y0 : int; x1 : int; y1 : int; net : int }

let make_rect layer ~x0 ~y0 ~x1 ~y1 ~net =
  if x1 <= x0 || y1 <= y0 then
    invalid_arg
      (Printf.sprintf "Geom.make_rect: empty rectangle (%d,%d)-(%d,%d)" x0 y0 x1 y1);
  { layer; x0; y0; x1; y1; net }

let width r = r.x1 - r.x0
let height r = r.y1 - r.y0
let area r = width r * height r

let translate r ~dx ~dy =
  { r with x0 = r.x0 + dx; x1 = r.x1 + dx; y0 = r.y0 + dy; y1 = r.y1 + dy }

let overlaps a b =
  a.layer = b.layer && a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1

type adjacency = { spacing : int; common_run : int }

let facing a b =
  if a.layer <> b.layer || overlaps a b then None
  else begin
    let x_overlap = Int.min a.x1 b.x1 - Int.max a.x0 b.x0 in
    let y_overlap = Int.min a.y1 b.y1 - Int.max a.y0 b.y0 in
    if y_overlap > 0 && x_overlap <= 0 then
      (* Horizontally separated, vertically overlapping: vertical run. *)
      Some { spacing = -x_overlap; common_run = y_overlap }
    else if x_overlap > 0 && y_overlap <= 0 then
      Some { spacing = -y_overlap; common_run = x_overlap }
    else None
  end

