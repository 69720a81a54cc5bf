(* Statistical summaries of base data (Section 5.1.1): per-table row and
   page counts, per-column distinct counts, null fraction, second-lowest /
   second-highest values (the paper's outlier-robust min/max), and an
   optional histogram on numeric columns. *)

open Relalg

type col_stats = {
  n_distinct : float;
  null_frac : float;
  lo : float option; (* second-lowest value, numeric columns *)
  hi : float option; (* second-highest *)
  min_v : float option; (* exact minimum (numeric columns) — sound bound *)
  max_v : float option; (* exact maximum — sound bound *)
  hist : Histogram.t option;
  sketch : Sketch.t option; (* Fast-AGMS sketch, folded in after execution *)
}

type t = {
  table : string;
  rows : float;
  pages : int;
  cols : (string * col_stats) list; (* by column name *)
}

(* The statistics registry: the [stats]-side companion of the catalog. *)
type db = (string, t) Hashtbl.t

let create_db () : db = Hashtbl.create 16

let robust_bounds (sorted : float array) =
  let n = Array.length sorted in
  if n = 0 then (None, None)
  else if n <= 2 then (Some sorted.(0), Some sorted.(n - 1))
  else (Some sorted.(1), Some sorted.(n - 2))
    (* 2nd-lowest / 2nd-highest: min and max are likely outliers (5.1.1) *)

(* LSD radix sort, a byte a pass, of integer-valued floats keyed by
   [int_of_float v - lo] in [0, span].  Equal ints are bit-equal floats,
   so this is the array any comparison sort would produce. *)
let radix_sort (a : float array) ~lo ~span =
  let rec pass (a : float array) b shift =
    if span lsr shift = 0 then a
    else begin
      let count = Array.make 257 0 in
      let digit i = ((int_of_float a.(i) - lo) lsr shift) land 255 in
      for i = 0 to Array.length a - 1 do
        count.(digit i + 1) <- count.(digit i + 1) + 1
      done;
      for d = 1 to 256 do count.(d) <- count.(d) + count.(d - 1) done;
      for i = 0 to Array.length a - 1 do
        b.(count.(digit i)) <- a.(i);
        count.(digit i) <- count.(digit i) + 1
      done;
      pass b a (shift + 8)
    end
  in
  pass a (Array.make (Array.length a) 0.) 0

module Str_tbl = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash = Hashtbl.hash
  end)

(* One typed pass over the rows.  Numeric values are unboxed into one
   array, sorted once (radix for ints) for the bounds and the histogram;
   its runs are the distinct values when all are [Int] with |i| <= 2^53
   or all [Float].  All-[Str] columns count in a monomorphic table.  Other
   columns (mixed Int/Float, Bool, mistyped values, huge ints) count in a
   structural [Value.t] table, which tells [Int 1] from [Float 1.]. *)
let analyze_column ?(hist_buckets = 20) ?(hist_kind = Sample.Equi_depth)
    (table : Storage.Table.t) cname : col_stats =
  let ci = Storage.Table.column_index table cname in
  let rows = Storage.Table.rows_array table in
  let numeric =
    match (List.nth table.Storage.Table.schema ci).Schema.ty with
    | Value.Tint | Value.Tfloat -> true
    | Value.Tbool | Value.Tstring -> false
  in
  let n = Array.length rows in
  let nums = Array.make (if numeric then n else 0) 0. in
  let strs = Str_tbl.create (if numeric then 1 else n) in
  let k = ref 0 and nulls = ref 0 and floats = ref false in
  let imin = ref max_int and imax = ref min_int and generic = ref false in
  Array.iter
    (fun tu ->
       match Tuple.get tu ci with
       | Value.Null -> incr nulls
       | Value.Int i when numeric ->
         nums.(!k) <- float_of_int i;
         incr k;
         imin := Int.min !imin i;
         imax := Int.max !imax i
       | Value.Float f when numeric ->
         nums.(!k) <- f;
         incr k;
         floats := true
       | Value.Str s when not numeric -> Str_tbl.replace strs s ()
       | Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _ ->
         generic := true)
    rows;
  let k = !k and ints = !imin <= !imax in
  let generic =
    !generic || (ints && !floats) || !imin < -(1 lsl 53) || !imax > 1 lsl 53
  in
  let sorted = Array.sub nums 0 k in
  let sorted =
    if ints && not (generic || !floats) then
      radix_sort sorted ~lo:!imin ~span:(!imax - !imin)
    else begin
      (* [Histogram.build]'s sort: it decides which of several
         equal-comparing floats (NaNs, zeros of either sign) lands at an
         end *)
      Array.sort Float.compare sorted;
      sorted
    end
  in
  let distinct =
    if generic then begin
      let seen = Hashtbl.create 256 in
      Array.iter
        (fun tu ->
           match Tuple.get tu ci with
           | Value.Null -> ()
           | v -> Hashtbl.replace seen v ())
        rows;
      Hashtbl.length seen
    end
    else if numeric then Array.length (fst (Histogram.runs sorted))
    else Str_tbl.length strs
  in
  let lo, hi = robust_bounds sorted in
  { n_distinct = float_of_int distinct;
    null_frac = (if n = 0 then 0. else float_of_int !nulls /. float_of_int n);
    lo;
    hi;
    min_v = (if k = 0 then None else Some sorted.(0));
    max_v = (if k = 0 then None else Some sorted.(k - 1));
    hist =
      (if k = 0 then None
       else Some (Histogram.of_sorted hist_kind ~buckets:hist_buckets sorted));
    sketch = None }

let analyze ?hist_buckets ?hist_kind (table : Storage.Table.t) : t =
  { table = table.Storage.Table.name;
    rows = float_of_int (Storage.Table.row_count table);
    pages = Storage.Table.page_count table;
    cols =
      List.map
        (fun (c : Schema.column) ->
           (c.Schema.name,
            analyze_column ?hist_buckets ?hist_kind table c.Schema.name))
        table.Storage.Table.schema }

(* ANALYZE every table of the catalog into a fresh registry. *)
let analyze_catalog ?hist_buckets ?hist_kind (cat : Storage.Catalog.t) : db =
  let db = create_db () in
  List.iter
    (fun name ->
       Hashtbl.replace db name
         (analyze ?hist_buckets ?hist_kind (Storage.Catalog.table cat name)))
    (Storage.Catalog.table_names cat);
  db

let find (db : db) table : t option = Hashtbl.find_opt db table

let col (t : t) name : col_stats option = List.assoc_opt name t.cols

let pp_col ppf (name, c) =
  Fmt.pf ppf "%s: ndv=%.0f nulls=%.2f lo=%a hi=%a%s" name c.n_distinct
    c.null_frac
    Fmt.(option ~none:(any "-") float) c.lo
    Fmt.(option ~none:(any "-") float) c.hi
    (match c.hist with None -> "" | Some h ->
       Printf.sprintf " hist(%d)" (Histogram.bucket_count h))

let pp ppf t =
  Fmt.pf ppf "@[<v>%s: %.0f rows, %d pages@,%a@]" t.table t.rows t.pages
    Fmt.(list ~sep:cut pp_col) t.cols
