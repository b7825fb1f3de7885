(** Lambda-grid layout geometry: net-labeled rectangles on process layers.

    All coordinates are integers in lambda units.  A rectangle spans
    [\[x0, x1) × \[y0, y1)].  The [net] is a network node id from
    {!Dl_cell.Mapping} (or [-1] for unconnected shapes). *)

type layer =
  | Diffusion_n
  | Diffusion_p
  | Poly
  | Metal1
  | Metal2
  | Contact  (** Metal1-to-poly/diffusion contacts. *)
  | Via      (** Metal1-to-metal2 vias. *)

val layer_name : layer -> string

type rect = {
  layer : layer;
  x0 : int;
  y0 : int;
  x1 : int;
  y1 : int;
  net : int;
}

val make_rect : layer -> x0:int -> y0:int -> x1:int -> y1:int -> net:int -> rect
(** @raise Invalid_argument on an empty or inverted rectangle. *)

val width : rect -> int
val height : rect -> int
val area : rect -> int

val translate : rect -> dx:int -> dy:int -> rect

val overlaps : rect -> rect -> bool
(** Same-layer area intersection. *)

type adjacency = {
  spacing : int;       (** Edge-to-edge gap (>= 0; 0 means touching). *)
  common_run : int;    (** Length of the facing parallel run. *)
}

val facing : rect -> rect -> adjacency option
(** [facing a b]: if [a] and [b] are on the same layer, disjoint, and have
    horizontally or vertically facing edges with positive common run, the
    gap geometry between them — the input to bridge critical-area
    computation. *)
