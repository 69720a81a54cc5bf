(* Sampling-based statistics construction (Section 5.1.2, [48,11]):
   draw a uniform sample of a column, build the histogram on the sample and
   scale counts up to the full table. *)

let uniform_sample (rng : Random.State.t) ~fraction (values : float array) :
  float array =
  let n = Array.length values in
  let k = max 1 (int_of_float (fraction *. float_of_int n)) in
  if k >= n then Array.copy values
  else begin
    (* partial Fisher-Yates: the first k positions of a shuffle *)
    let a = Array.copy values in
    for i = 0 to k - 1 do
      let j = i + Random.State.int rng (n - i) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.sub a 0 k
  end

let scale_histogram (h : Histogram.t) ~factor : Histogram.t =
  let open Histogram in
  { total = h.total *. factor;
    singletons = Array.map (fun (v, c) -> (v, c *. factor)) h.singletons;
    buckets =
      Array.map
        (fun b -> { b with count = b.count *. factor })
        h.buckets }

type kind = Histogram.kind = Equi_width | Equi_depth | Compressed

let kind_name = function
  | Equi_width -> "equi-width"
  | Equi_depth -> "equi-depth"
  | Compressed -> "compressed"

let build = Histogram.build

(* Histogram built from a [fraction] sample, counts scaled to population. *)
let sampled_histogram rng kind ~buckets ~fraction (values : float array) :
  Histogram.t =
  let sample = uniform_sample rng ~fraction values in
  let h = build kind ~buckets sample in
  let factor =
    if Array.length sample = 0 then 1.
    else float_of_int (Array.length values) /. float_of_int (Array.length sample)
  in
  scale_histogram h ~factor

(* Mean absolute selectivity error of [h] vs. ground truth over random range
   queries — the accuracy metric for experiments E7/E8. *)
let range_query_error rng ~queries (truth : float array) (h : Histogram.t) :
  float =
  let n = Array.length truth in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy truth in
    Array.sort Float.compare sorted;
    let lo_all = sorted.(0) and hi_all = sorted.(n - 1) in
    let span = hi_all -. lo_all in
    let total_err = ref 0. in
    for _ = 1 to queries do
      let a = lo_all +. (Random.State.float rng 1.0 *. span) in
      let b = lo_all +. (Random.State.float rng 1.0 *. span) in
      let lo = min a b and hi = max a b in
      let actual =
        let c = ref 0 in
        Array.iter (fun v -> if v >= lo && v <= hi then incr c) truth;
        float_of_int !c /. float_of_int n
      in
      let est = Histogram.est_range h ~lo ~hi () in
      total_err := !total_err +. Float.abs (est -. actual)
    done;
    !total_err /. float_of_int queries
  end
