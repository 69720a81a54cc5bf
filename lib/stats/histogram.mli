(** Column histograms over numeric data (Section 5.1.1): equi-width,
    equi-depth (equi-height) and compressed (frequent values in singleton
    buckets) bucketizations, with the uniform-spread intra-bucket
    assumption the paper discusses. *)

type bucket = {
  lo : float;  (** inclusive *)
  hi : float;  (** inclusive *)
  count : float;  (** rows in [lo, hi] *)
  distinct : float;  (** distinct values inside *)
}

type t = {
  total : float;  (** rows covered (non-null) *)
  singletons : (float * float) array;  (** (value, frequency), sorted *)
  buckets : bucket array;  (** disjoint, sorted by [lo] *)
}

val total : t -> float

(** Runs of equal values (by [Float.compare]) of a sorted array: each
    run's first value and length. *)
val runs : float array -> float array * int array

(** Compressed gives a quarter of the buckets to singletons. *)
type kind = Equi_width | Equi_depth | Compressed

(** A histogram over data sorted by [Float.compare] ({!build} sorts). *)
val of_sorted : kind -> buckets:int -> float array -> t

val build : kind -> buckets:int -> float array -> t

val build_equi_width : buckets:int -> float array -> t
val build_equi_depth : buckets:int -> float array -> t

(** [build_compressed ~buckets ~singletons data]: the [singletons] most
    frequent values get exact singleton buckets; the rest is equi-depth. *)
val build_compressed : buckets:int -> singletons:int -> float array -> t

(** Rows of bucket [b] within the value range, by linear interpolation. *)
val bucket_range_rows : bucket -> lo_v:float -> hi_v:float -> float

(** Selectivity of [column = v]. *)
val est_eq : t -> float -> float

(** Selectivity of [lo <= column <= hi] (either side optional). *)
val est_range : t -> ?lo:float -> ?hi:float -> unit -> float

(** Histogram "join" (Section 5.1.3): align bucket boundaries and estimate
    matching row pairs per interval as r1*r2/max(d1,d2) — the containment
    assumption.  Returns estimated result rows. *)
val join_rows : t -> t -> float

(** Number of buckets including singletons. *)
val bucket_count : t -> int

val pp : Format.formatter -> t -> unit
