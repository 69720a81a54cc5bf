(* Column histograms over numeric data (Section 5.1.1).

   Three bucketizations from the paper:
   - equi-width: k ranges of equal value span;
   - equi-depth (equi-height): k ranges of (near-)equal row count;
   - compressed: frequent values in singleton buckets, equi-depth on the
     rest — effective for both high- and low-skew data ([52]).

   Within a bucket, values are assumed uniformly spread over the bucket's
   distinct values — the accuracy-relevant assumption discussed in 5.1.1. *)

type bucket = {
  lo : float; (* inclusive *)
  hi : float; (* inclusive *)
  count : float; (* rows with lo <= v <= hi *)
  distinct : float; (* distinct values inside *)
}

type t = {
  total : float; (* rows covered (non-null) *)
  singletons : (float * float) array; (* (value, frequency), sorted *)
  buckets : bucket array; (* disjoint, sorted by lo *)
}

let total t = t.total

let runs (sorted : float array) : float array * int array =
  let n = Array.length sorted in
  let starts_run i = i = 0 || Float.compare sorted.(i) sorted.(i - 1) <> 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do if starts_run i then incr m done;
  let vs = Array.make !m 0. and cs = Array.make !m 0 and r = ref (-1) in
  for i = 0 to n - 1 do
    if starts_run i then begin
      incr r;
      vs.(!r) <- sorted.(i)
    end;
    cs.(!r) <- cs.(!r) + 1
  done;
  (vs, cs)

(* Cut runs into consecutive buckets, closing the open bucket before run
   [r] when [cut r rows] holds ([rows]: rows already in the open bucket). *)
let cut_runs ((vs, cs) : float array * int array) cut : bucket array =
  let out = ref [] and start = ref 0 and rows = ref 0 in
  let close r =
    out :=
      { lo = vs.(!start); hi = vs.(r - 1); count = float_of_int !rows;
        distinct = float_of_int (r - !start) } :: !out;
    start := r;
    rows := 0
  in
  Array.iteri
    (fun r c ->
       if r > !start && cut r !rows then close r;
       rows := !rows + c)
    cs;
  if cs <> [||] then close (Array.length cs);
  Array.of_list (List.rev !out)

let of_buckets buckets singletons =
  let total =
    Array.fold_left (fun acc b -> acc +. b.count) 0. buckets
    +. Array.fold_left (fun acc (_, c) -> acc +. c) 0. singletons
  in
  { total; singletons; buckets }

(* Greedy fill: close a bucket when it would pass the target depth; a
   single heavy value may overflow its bucket (values are never split). *)
let equi_depth ~buckets:k ((_, cs) as runs) =
  if Array.length cs = 0 then [||]
  else
    let target = max 1 (Array.fold_left ( + ) 0 cs / k) in
    cut_runs runs (fun r rows -> rows + cs.(r) > target)

let equi_width ~buckets:k (sorted : float array) =
  let n = Array.length sorted in
  if n = 0 then [||]
  else begin
    let lo = sorted.(0) and hi = sorted.(n - 1) in
    let width = if hi > lo then (hi -. lo) /. float_of_int k else 1. in
    let bucket_index v =
      if width <= 0. then 0
      else min (k - 1) (int_of_float ((v -. lo) /. width))
    in
    let ((vs, _) as runs) = runs sorted in
    (* indices never decrease along a sorted array *)
    cut_runs runs (fun r _ -> bucket_index vs.(r) <> bucket_index vs.(r - 1))
  end

(* The [s] most frequent values (ties: the lower value) become singleton
   buckets; the rest is equi-depth. *)
let compressed ~buckets ~singletons:s sorted =
  let vs, cs = runs sorted in
  let by_freq = Array.init (Array.length cs) Fun.id in
  Array.stable_sort (fun a b -> Int.compare cs.(b) cs.(a)) by_freq;
  let top = Array.make (Array.length cs) false in
  Array.iteri (fun i r -> if i < s then top.(r) <- true) by_freq;
  let pick keep a =
    Array.of_list (List.filteri (fun r _ -> top.(r) = keep) (Array.to_list a))
  in
  of_buckets
    (equi_depth ~buckets (pick false vs, pick false cs))
    (Array.map2 (fun v c -> (v, float_of_int c)) (pick true vs) (pick true cs))

type kind = Equi_width | Equi_depth | Compressed

let of_sorted kind ~buckets sorted =
  match kind with
  | Equi_width -> of_buckets (equi_width ~buckets sorted) [||]
  | Equi_depth -> of_buckets (equi_depth ~buckets (runs sorted)) [||]
  | Compressed ->
    compressed ~buckets:(max 1 (buckets - buckets / 4))
      ~singletons:(buckets / 4) sorted

let sorted_copy values =
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  sorted

let build kind ~buckets values = of_sorted kind ~buckets (sorted_copy values)
let build_equi_width = build Equi_width
let build_equi_depth = build Equi_depth

let build_compressed ~buckets ~singletons values =
  compressed ~buckets ~singletons (sorted_copy values)

(* ------------------------------------------------------------------ *)
(* Estimation *)

(* Fraction of the bucket's rows with value = v under uniform spread. *)
let bucket_eq_fraction b v =
  if v < b.lo || v > b.hi then 0.
  else if b.distinct <= 0. then 0.
  else b.count /. b.distinct

(* Rows with value in [lo_v, hi_v] inside bucket [b]: linear interpolation
   over the value span. *)
let bucket_range_rows b ~lo_v ~hi_v =
  let lo_v = max lo_v b.lo and hi_v = min hi_v b.hi in
  if hi_v < lo_v then 0.
  else if b.hi = b.lo then b.count
  else b.count *. ((hi_v -. lo_v) /. (b.hi -. b.lo))

(* Selectivity of [column = v]. *)
let est_eq t v =
  if t.total <= 0. then 0.
  else
    let s =
      match Array.find_opt (fun (w, _) -> w = v) t.singletons with
      | Some (_, c) -> c
      | None ->
        Array.fold_left (fun acc b -> acc +. bucket_eq_fraction b v) 0. t.buckets
    in
    s /. t.total

(* Selectivity of [lo <= column <= hi] (either side optional). *)
let est_range t ?lo ?hi () =
  if t.total <= 0. then 0.
  else
    let lo_v = Option.value lo ~default:neg_infinity in
    let hi_v = Option.value hi ~default:infinity in
    let from_buckets =
      Array.fold_left
        (fun acc b -> acc +. bucket_range_rows b ~lo_v ~hi_v)
        0. t.buckets
    in
    let from_singles =
      Array.fold_left
        (fun acc (v, c) -> if v >= lo_v && v <= hi_v then acc +. c else acc)
        0. t.singletons
    in
    min 1. ((from_buckets +. from_singles) /. t.total)

(* Histogram "join" (Section 5.1.3): align bucket boundaries of two
   histograms and estimate matching row pairs per aligned interval as
   (r1 * r2) / max(d1, d2) — the containment assumption.  Returns estimated
   join result rows (not selectivity). *)
let join_rows (a : t) (b : t) : float =
  let expand t =
    Array.to_list t.buckets
    @ (Array.to_list t.singletons
       |> List.map (fun (v, c) -> { lo = v; hi = v; count = c; distinct = 1. }))
  in
  let ba = expand a and bb = expand b in
  (* boundary set *)
  let bounds =
    List.concat_map (fun bk -> [ bk.lo; bk.hi ]) (ba @ bb)
    |> List.sort_uniq Float.compare
  in
  let rec intervals = function
    | x :: (y :: _ as rest) -> (x, y) :: intervals rest
    | [ x ] -> [ (x, x) ]
    | [] -> []
  in
  (* Like [bucket_range_rows], except a single-point overlap with a range
     bucket contributes that bucket's per-distinct mass rather than the
     measure-zero continuous answer.  Such overlaps arise exactly when
     the other histogram has a point bucket sitting on this bucket's
     edge — returning 0 there would estimate 0 join rows for a value the
     histograms both provably contain. *)
  let rows_in bs ~lo_v ~hi_v =
    List.fold_left
      (fun acc bk ->
         let olo = Float.max lo_v bk.lo and ohi = Float.min hi_v bk.hi in
         if ohi < olo then acc
         else if bk.hi = bk.lo then acc +. bk.count
         else if ohi = olo then acc +. (bk.count /. Float.max 1. bk.distinct)
         else acc +. (bk.count *. ((ohi -. olo) /. (bk.hi -. bk.lo))))
      0. bs
  in
  let distinct_in bs ~lo_v ~hi_v =
    List.fold_left
      (fun acc bk ->
         let overlap_lo = max lo_v bk.lo and overlap_hi = min hi_v bk.hi in
         if overlap_hi < overlap_lo then acc
         else if bk.hi = bk.lo then acc +. bk.distinct
         else if overlap_hi = overlap_lo then acc +. 1.
         else
           acc +. (bk.distinct *. ((overlap_hi -. overlap_lo) /. (bk.hi -. bk.lo))))
      0. bs
  in
  (* halve interval double-counting at shared boundaries by using half-open
     [lo, hi) intervals except the last *)
  let ivs = intervals bounds in
  let n = List.length ivs in
  List.fold_left
    (fun (acc, i) (lo_v, hi_v) ->
       let hi_eff =
         if i = n - 1 then hi_v
         else hi_v -. (1e-9 *. (1. +. Float.abs hi_v))
       in
       let r1 = rows_in ba ~lo_v ~hi_v:hi_eff
       and r2 = rows_in bb ~lo_v ~hi_v:hi_eff in
       let d1 = distinct_in ba ~lo_v ~hi_v:hi_eff
       and d2 = distinct_in bb ~lo_v ~hi_v:hi_eff in
       let d = max d1 d2 in
       ((if d > 0. then acc +. (r1 *. r2 /. d) else acc), i + 1))
    (0., 0) ivs
  |> fst

let bucket_count t = Array.length t.buckets + Array.length t.singletons

let pp ppf t =
  Fmt.pf ppf "@[<v>hist total=%.0f@,singletons: %a@,%a@]" t.total
    Fmt.(array ~sep:(any ", ") (fun ppf (v, c) -> Fmt.pf ppf "%g:%g" v c))
    t.singletons
    Fmt.(array ~sep:cut (fun ppf b ->
        Fmt.pf ppf "  [%g, %g] count=%g distinct=%g" b.lo b.hi b.count b.distinct))
    t.buckets
