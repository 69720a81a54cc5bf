(** Sampling-based statistics construction (Section 5.1.2, [48,11]). *)

(** Uniform sample without replacement of the given fraction (at least one
    element). *)
val uniform_sample :
  Random.State.t -> fraction:float -> float array -> float array

(** Scale a histogram's counts by [factor] (sample → population). *)
val scale_histogram : Histogram.t -> factor:float -> Histogram.t

type kind = Histogram.kind = Equi_width | Equi_depth | Compressed

val kind_name : kind -> string

(** Build a histogram of the given bucketization. *)
val build : kind -> buckets:int -> float array -> Histogram.t

(** Histogram built from a sample, counts scaled to the population. *)
val sampled_histogram :
  Random.State.t -> kind -> buckets:int -> fraction:float -> float array ->
  Histogram.t

(** Mean absolute selectivity error over random range queries against the
    true data — the accuracy metric of experiments E7/E8. *)
val range_query_error :
  Random.State.t -> queries:int -> float array -> Histogram.t -> float
