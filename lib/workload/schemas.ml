(* Synthetic databases used by the examples, tests and experiments:
   - the paper's running Emp/Dept schema (Sections 4.2, 4.3);
   - an OLAP star schema (Section 4.1.1's Cartesian-product discussion);
   - chain/cycle/star/clique join workloads over uniform relations. *)

open Relalg

let v_int i = Value.Int i
let v_str s = Value.Str s

(* ------------------------------------------------------------------ *)
(* Emp/Dept *)

type emp_dept = {
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  emps : int;
  depts : int;
}

(* ANALYZE the catalog, or leave the registry empty for a caller that
   ANALYZEs (and times) it separately. *)
let analyze_if analyze cat =
  if analyze then Stats.Table_stats.analyze_catalog cat
  else Stats.Table_stats.create_db ()

(* Emp(eid, name, did, dept_name, sal, age, mgr) and
   Dept(did, name, loc, budget, num_machines, mgr).
   [empty_dept_frac] controls departments with no employees (the count-bug
   experiment needs them).  Indexes: Emp(did), Emp(eid) clustered,
   Dept(did) clustered. *)
let emp_dept ?(seed = 42) ?(emps = 2000) ?(depts = 50)
    ?(empty_dept_frac = 0.1) ?(analyze = true) () : emp_dept =
  let st = Gen.rng seed in
  let cat = Storage.Catalog.create () in
  let dept =
    Storage.Catalog.create_table ~non_null:[ "did"; "name" ] cat ~name:"Dept"
      ~columns:
        [ ("did", Value.Tint); ("name", Value.Tstring); ("loc", Value.Tstring);
          ("budget", Value.Tint); ("num_machines", Value.Tint);
          ("mgr", Value.Tint) ]
  in
  let emp =
    Storage.Catalog.create_table ~non_null:[ "eid"; "did" ] cat ~name:"Emp"
      ~columns:
        [ ("eid", Value.Tint); ("name", Value.Tstring); ("did", Value.Tint);
          ("dept_name", Value.Tstring); ("sal", Value.Tint);
          ("age", Value.Tint); ("mgr", Value.Tint) ]
  in
  let populated =
    max 1 (int_of_float (float_of_int depts *. (1. -. empty_dept_frac)))
  in
  let dept_name d = Printf.sprintf "dept%02d" d in
  for d = 0 to depts - 1 do
    Storage.Table.insert dept
      (Tuple.of_list
         [ v_int d; v_str (dept_name d); v_str (Gen.pick st Gen.city_pool);
           v_int (Gen.uniform_int st ~lo:10 ~hi:500 * 1000);
           v_int (Gen.uniform_int st ~lo:0 ~hi:60);
           v_int (Gen.uniform_int st ~lo:0 ~hi:(max 1 emps - 1)) ])
  done;
  for e = 0 to emps - 1 do
    let d = Gen.uniform_int st ~lo:0 ~hi:(populated - 1) in
    Storage.Table.insert emp
      (Tuple.of_list
         [ v_int e; v_str (Gen.pick st Gen.name_pool); v_int d;
           v_str (dept_name d);
           v_int (Gen.uniform_int st ~lo:30 ~hi:180 * 1000);
           v_int (Gen.uniform_int st ~lo:21 ~hi:65);
           v_int (Gen.uniform_int st ~lo:0 ~hi:(emps - 1)) ])
  done;
  ignore (Storage.Catalog.create_index cat ~clustered:true ~table:"Emp" ~column:"eid" ());
  ignore (Storage.Catalog.create_index cat ~table:"Emp" ~column:"did" ());
  ignore (Storage.Catalog.create_index cat ~clustered:true ~table:"Dept" ~column:"did" ());
  let db = analyze_if analyze cat in
  { cat; db; emps; depts }

(* ------------------------------------------------------------------ *)
(* OLAP star schema: Sales(fact) with [dims] dimension tables *)

type star = {
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  fact : string;
  dims : string list; (* dimension table names, fk column is <dim>_id *)
}

let star ?(seed = 7) ?(fact_rows = 5000) ?(dim_rows = 20) ?(dims = 3)
    ?(analyze = true) () : star =
  let st = Gen.rng seed in
  let cat = Storage.Catalog.create () in
  let dim_names = List.init dims (fun i -> Printf.sprintf "Dim%d" (i + 1)) in
  List.iter
    (fun name ->
       let t =
         Storage.Catalog.create_table ~non_null:[ "id" ] cat ~name
           ~columns:
             [ ("id", Value.Tint); ("label", Value.Tstring);
               ("weight", Value.Tint) ]
       in
       for i = 0 to dim_rows - 1 do
         Storage.Table.insert t
           (Tuple.of_list
              [ v_int i; v_str (Printf.sprintf "%s_%d" name i);
                v_int (Gen.uniform_int st ~lo:1 ~hi:100) ])
       done)
    dim_names;
  let fact_cols =
    ("sid", Value.Tint)
    :: List.map
         (fun name -> (String.lowercase_ascii name ^ "_id", Value.Tint))
         dim_names
    @ [ ("amount", Value.Tint) ]
  in
  let fact =
    Storage.Catalog.create_table
      ~non_null:(List.map fst fact_cols)
      cat ~name:"Sales" ~columns:fact_cols
  in
  for s = 0 to fact_rows - 1 do
    Storage.Table.insert fact
      (Tuple.of_list
         (v_int s
          :: List.map (fun _ -> v_int (Gen.uniform_int st ~lo:0 ~hi:(dim_rows - 1)))
               dim_names
          @ [ v_int (Gen.uniform_int st ~lo:1 ~hi:1000) ]))
  done;
  List.iter
    (fun name ->
       ignore
         (Storage.Catalog.create_index cat ~clustered:true ~table:name
            ~column:"id" ());
       ignore
         (Storage.Catalog.create_index cat ~table:"Sales"
            ~column:(String.lowercase_ascii name ^ "_id") ()))
    dim_names;
  (* composite index over all foreign keys: the access path that makes
     dimension Cartesian products worthwhile (Section 4.1.1) *)
  ignore
    (Storage.Catalog.create_index cat ~table:"Sales"
       ~columns:
         (List.map (fun n -> String.lowercase_ascii n ^ "_id") dim_names)
       ());
  let db = analyze_if analyze cat in
  { cat; db; fact = "Sales"; dims = dim_names }

(* ------------------------------------------------------------------ *)
(* Chain / cycle / star / clique join workloads over n relations *)

type shape = Chain_q | Cycle_q | Star_q | Clique_q

(* The SPJ type lives in the systemr library; to keep workload free of that
   dependency we expose the raw pieces instead. *)
type join_pieces = {
  jcat : Storage.Catalog.t;
  jdb : Stats.Table_stats.db;
  relations : (string * string) list; (* alias, table *)
  predicates : Expr.t list;
}

(* n relations R1..Rn with [rows] tuples each; columns a and b; predicates
   follow the requested query-graph shape. *)
let join_shape ?(seed = 11) ?(rows = 500) ~shape ~n () : join_pieces =
  let st = Gen.rng seed in
  let cat = Storage.Catalog.create () in
  let names = List.init n (fun i -> Printf.sprintf "R%d" (i + 1)) in
  List.iter
    (fun name ->
       let t =
         Storage.Catalog.create_table cat ~name
           ~columns:[ ("a", Value.Tint); ("b", Value.Tint); ("c", Value.Tint) ]
       in
       for _ = 1 to rows do
         Storage.Table.insert t
           (Tuple.of_list
              [ v_int (Gen.uniform_int st ~lo:0 ~hi:(rows / 5));
                v_int (Gen.uniform_int st ~lo:0 ~hi:(rows / 5));
                v_int (Gen.uniform_int st ~lo:0 ~hi:999) ])
       done)
    names;
  let col rel c = Expr.Col { Expr.rel; col = c } in
  let eq a b = Expr.Cmp (Expr.Eq, a, b) in
  let preds =
    match shape with
    | Chain_q ->
      List.init (n - 1) (fun i ->
          eq (col (List.nth names i) "b") (col (List.nth names (i + 1)) "a"))
    | Cycle_q ->
      (* the chain plus the closing Rn-R1 edge *)
      if n < 2 then []
      else
        List.init n (fun i ->
            eq (col (List.nth names i) "b")
              (col (List.nth names ((i + 1) mod n)) "a"))
    | Star_q ->
      List.init (n - 1) (fun i ->
          eq (col (List.nth names 0) "a") (col (List.nth names (i + 1)) "a"))
    | Clique_q ->
      List.concat
        (List.init n (fun i ->
             List.init (n - i - 1) (fun j ->
                 eq (col (List.nth names i) "a")
                   (col (List.nth names (i + j + 1)) "a"))))
  in
  let db = Stats.Table_stats.analyze_catalog cat in
  { jcat = cat; jdb = db;
    relations = List.map (fun nm -> (nm, nm)) names;
    predicates = preds }
