(** Inductive fault analysis (the paper's *lift* tool): scan the layout
    geometry against the defect statistics and emit the weighted realistic
    fault list.

    Every fault is "originated by a likely physical defect": bridges come
    from facing wire pairs (weighted by short critical area x density),
    opens from wire segments, contact/via opens from contact geometry,
    stuck-on devices from gate-oxide pinholes.  Faults mapping to the same
    electrical site are merged by summing weights. *)

type class_summary = {
  cls : Defect_stats.defect_class;
  count : int;          (** Geometric defect sites contributing. *)
  total_weight : float;
}

type extraction = {
  layout : Dl_layout.Layout.t Lazy.t;
      (** The layout the faults were extracted from.  {!extract} returns it
          already built; an experiment whose layout-ifa stage was a store
          hit builds it on first use. *)
  faults : Dl_switch.Realistic.t array;
  gross_weight : float;
      (** Chip-killing defects excluded from the fault list (supply-rail
          shorts/opens, pad defects): screened by continuity testing before
          any functional vector, hence outside the DL(T) model. *)
  summaries : class_summary list;
}

val extract :
  ?stats:Defect_stats.t ->
  ?min_weight_ratio:float ->
  Dl_layout.Layout.t ->
  extraction
(** [min_weight_ratio] (default 0) prunes faults lighter than that fraction
    of the heaviest fault; pruned weight moves to [gross_weight] so the
    yield of eq. 5 is unchanged. *)

val total_weight : extraction -> float
(** Sum of all fault weights (the exponent of eq. 5). *)

val yield_of : extraction -> float
(** [Y = exp (- Σ w_j)] (eq. 5), excluding gross weight. *)

val weight_histogram : ?bins:int -> extraction -> Dl_util.Histogram.t
(** Log-binned histogram of fault weights: the paper's Fig. 3. *)

val pp_summary : Format.formatter -> extraction -> unit
(** Forces [layout] (the summary names its circuit). *)
