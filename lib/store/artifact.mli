(** Typed binary codecs for every pipeline artifact the stage graph
    caches: circuits, ATPG test sets, stuck-at universes, per-fault
    detection results, IFA extraction output and experiment summaries.

    All codecs are exact round-trips: floats are stored bit-for-bit and
    circuits are rebuilt through {!Dl_netlist.Circuit.Builder} in original
    node-id order, so the decoded circuit is structurally equal to the
    encoded one (same ids, levels and topological order — the derived
    fields are deterministic functions of the declarations). *)

open Dl_netlist

val circuit : Circuit.t Codec.t

val stuck_faults : Dl_fault.Stuck_at.t array Codec.t

(** A codec is typed on the library's own result wherever that record
    holds exactly the stored fields: {!atpg}, {!swift} and {!ndet_atpg}
    here, [Dl_core.Wafer_mc.codec] and [Dl_core.Bootstrap.codec] beside
    their types.  The four records below stay because their live types
    also carry what is never stored: the fault list a stage was given
    ({!detections}, {!ndet_profile}), a lazily built layout ({!ifa}), or
    a fit the summary flattens ({!summary}). *)

val atpg : Dl_atpg.Atpg.result Codec.t
(** ATPG stage output: the ordered vector sequence plus the flow
    statistics and the redundancy verdicts downstream stages filter on. *)

(** Gate-level fault-simulation output, minus the fault list (which is the
    separately-cached universe artifact the detections are parallel to).
    Version 2 appends the engine counters ({!Dl_fault.Fault_sim.Stats.t}),
    so [--sim-stats] reporting works from a warm cache too. *)
type detections = {
  first_detection : int option array;
  vectors_applied : int;
  gate_evaluations : int;
  sim_stats : Dl_fault.Fault_sim.Stats.t;
}

val detections : detections Codec.t

(** IFA extraction output minus the layout geometry: the weighted
    realistic fault list and the per-class accounting.  The layout itself
    is a deterministic function of the mapped circuit and the row count,
    so it is not persisted: a warm run rebuilds it only if asked for. *)
type ifa = {
  faults : Dl_switch.Realistic.t array;
  gross_weight : float;
  summaries : Dl_extract.Ifa.class_summary list;
}

val ifa : ifa Codec.t

val swift : Dl_switch.Swift.result Codec.t
(** Switch-level (swift) simulation output, parallel to the IFA fault
    list. *)

(** Experiment summary: the rendered one-paragraph summary plus the
    fitted eq. 9 parameters and the yield-scaling factor. *)
type summary = {
  text : string;
  fit_r : float;
  fit_theta_max : float;
  fit_rmse : float;
  fit_rmse_log10 : bool;  (** [true]: rmse in log10 units (see
                              {!Dl_core.Projection.rmse_scale}). *)
  scale_factor : float;
}

val summary : summary Codec.t

(** Multi-detect simulation output (the [ndet-sim] stage), minus the fault
    list — like {!detections}, the counts and detection indices are
    parallel to the separately-cached universe artifact.  [nd_detections]
    is row-major [faults * drop_after] with [-1] for "never reached the
    k-th detection" (mirrors {!Dl_fault.Fault_sim.ndet}). *)
type ndet_profile = {
  nd_drop_after : int;
  nd_counts : int array;
  nd_detections : int array;
  nd_vectors_applied : int;
  nd_gate_evaluations : int;
  nd_sim_stats : Dl_fault.Fault_sim.Stats.t;
}

val ndet_profile : ndet_profile Codec.t

val ndet_atpg : Dl_ndet.Atpg_n.result Codec.t
(** n-detection test-generation output (the [ndet-atpg] stage). *)

val defect_stats_fingerprint : Dl_extract.Defect_stats.t -> string
(** Canonical digest of the non-zero defect classes (name, density, x0):
    the config fingerprint of the layout-IFA stage. *)
