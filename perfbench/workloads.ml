(* The benchmark's inputs: every table row and every SQL text is generated
   here from the workload seed; the program under test only ever sees the
   resulting catalogs and strings.  [make] builds tables and indexes but
   does not ANALYZE — the driver times that step separately. *)

open Relalg

type db = { cat : Storage.Catalog.t; mutable stats : Stats.Table_stats.db }

type query = {
  label : string;
  sql : string;
  db : db;
  bushy : bool;  (** bushy join enumeration instead of the left-deep default *)
}

type t = {
  name : string;
  par_probe : bool;
      (** the traced pass also runs every query at the host's dop, which
          is where the [exec.par] layer is measured *)
  make : seed:int -> query list list;
      (** the mix as slots: each pass over the mix runs one query of every
          slot, taking a slot's queries in turn *)
}

let rng = Workload.Gen.rng
let uniform = Workload.Gen.uniform_int
let new_db () = { cat = Storage.Catalog.create (); stats = Stats.Table_stats.create_db () }
let q ?(bushy = false) db label sql = { label; sql; db; bushy }

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = uniform st ~lo:0 ~hi:i in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [f 0 .. f (n-1)] in a seeded order.  Columns are drawn this way rather
   than independently at random, so every seed gives each column the same
   multiset of values: the same statistics, plans and result sizes, with
   only the placement of values changing. *)
let shuffled st n f = Array.map f (permutation st n)

(* ------------------------------------------------------------------ *)
(* star_olap: Sales(sid, dim1_id..dim4_id, amount) over four 1000-row
   dimensions.  160k fact rows are about 1100 pages, more than the
   executor's 1024-page buffer pool, so scans miss in the pool.  Every key
   of a dimension has exactly 160 fact rows, every weight 1..100 exactly 10
   dimension rows and every amount 1..1000 exactly 160 fact rows. *)

let fact_rows = 160_000
let dim_rows = 1000
let dims = [ "Dim1"; "Dim2"; "Dim3"; "Dim4" ]

let star_db ~seed =
  let st = rng seed in
  let db = new_db () in
  List.iter
    (fun name ->
       let t =
         Storage.Catalog.create_table ~non_null:[ "id" ] db.cat ~name
           ~columns:
             [ ("id", Value.Tint); ("label", Value.Tstring); ("weight", Value.Tint) ]
       in
       let weight = shuffled st dim_rows (fun i -> 1 + (i mod 100)) in
       for i = 0 to dim_rows - 1 do
         Storage.Table.insert t
           [| Value.Int i; Value.Str (Printf.sprintf "%s_%d" name i); Value.Int weight.(i) |]
       done;
       ignore (Storage.Catalog.create_index db.cat ~clustered:true ~table:name ~column:"id" ()))
    dims;
  let fks = List.map (fun d -> String.lowercase_ascii d ^ "_id") dims in
  let cols = ("sid" :: fks) @ [ "amount" ] in
  let sales =
    Storage.Catalog.create_table ~non_null:cols db.cat ~name:"Sales"
      ~columns:(List.map (fun c -> (c, Value.Tint)) cols)
  in
  let fk_cols = List.map (fun _ -> shuffled st fact_rows (fun s -> s mod dim_rows)) fks in
  let amount = shuffled st fact_rows (fun s -> 1 + (s mod 1000)) in
  for s = 0 to fact_rows - 1 do
    let row = Array.make (List.length cols) (Value.Int s) in
    List.iteri (fun i col -> row.(i + 1) <- Value.Int col.(s)) fk_cols;
    row.(Array.length row - 1) <- Value.Int amount.(s);
    Storage.Table.insert sales row
  done;
  ignore (Storage.Catalog.create_index db.cat ~clustered:true ~table:"Sales" ~column:"sid" ());
  List.iter
    (fun fk -> ignore (Storage.Catalog.create_index db.cat ~table:"Sales" ~column:fk ()))
    fks;
  db

(* The filter keys are drawn from the seed; result sizes do not depend on
   it.  The selective filter appears twice, with
   different keys, so the mix has an odd number of queries and its median
   latency falls inside one query's samples rather than in the gap
   between two. *)
let star_queries ~seed =
  let db = star_db ~seed in
  let st = rng (Workload.Gen.derive seed 1) in
  let selective fk =
    Printf.sprintf "SELECT S.sid, S.amount FROM Sales S WHERE S.%s = %d AND S.amount > 500" fk
      (uniform st ~lo:0 ~hi:(dim_rows - 1))
  in
  [ q db "selective_filter_1" (selective "dim1_id");
    q db "selective_filter_3" (selective "dim3_id");
    q db "fact_group_by"
      "SELECT S.dim2_id, COUNT(*) AS n, SUM(S.amount) AS total FROM Sales S \
       GROUP BY S.dim2_id";
    q db "join2_group_by"
      "SELECT D1.weight, COUNT(*) AS n, SUM(S.amount) AS total \
       FROM Sales S, Dim1 D1 WHERE S.dim1_id = D1.id GROUP BY D1.weight";
    q db "join4_group_by"
      "SELECT D1.weight, COUNT(*) AS n, SUM(S.amount) AS total \
       FROM Sales S, Dim1 D1, Dim2 D2, Dim3 D3 \
       WHERE S.dim1_id = D1.id AND S.dim2_id = D2.id AND S.dim3_id = D3.id \
       AND D2.weight <= 50 AND D3.weight > 20 GROUP BY D1.weight";
    q db "order_by_30k"
      "SELECT S.sid, S.dim4_id, S.amount FROM Sales S WHERE S.amount <= 190 \
       ORDER BY S.amount DESC, S.sid";
    q db "join_group_order"
      "SELECT D4.weight, COUNT(*) AS n, SUM(S.amount) AS total \
       FROM Sales S, Dim4 D4 WHERE S.dim4_id = D4.id AND D4.weight > 50 \
       GROUP BY D4.weight ORDER BY SUM(S.amount) DESC, D4.weight" ]

(* ------------------------------------------------------------------ *)
(* join_enum: R1..R12 of 300 rows.  Each column is a seeded permutation
   of 0..299: [a] is a key, [b] a foreign key into the next relation's [a]
   and [c] carries the local filter, which keeps exactly 97% of every
   relation.  Equi-joins on keys preserve cardinality, so execution stays
   small, the enumerator's search dominates, and the seed changes which
   rows meet but not the statistics the optimizer sees. *)

let join_rows = 300
let join_rels = 12

let join_db ~seed =
  let st = rng seed in
  let db = new_db () in
  for r = 1 to join_rels do
    let name = Printf.sprintf "R%d" r in
    let t =
      Storage.Catalog.create_table ~non_null:[ "a"; "b"; "c" ] db.cat ~name
        ~columns:[ ("a", Value.Tint); ("b", Value.Tint); ("c", Value.Tint) ]
    in
    let a = permutation st join_rows and b = permutation st join_rows in
    let c = permutation st join_rows in
    for i = 0 to join_rows - 1 do
      Storage.Table.insert t [| Value.Int a.(i); Value.Int b.(i); Value.Int c.(i) |]
    done;
    ignore (Storage.Catalog.create_index db.cat ~table:name ~column:"a" ())
  done;
  db

let count_query ~n preds =
  let from = List.init n (fun i -> Printf.sprintf "R%d" (i + 1)) in
  let locals = List.map (fun r -> Printf.sprintf "%s.c >= 9" r) from in
  Printf.sprintf "SELECT COUNT(*) AS n FROM %s WHERE %s" (String.concat ", " from)
    (String.concat " AND " (preds @ locals))

let chain n = List.init (n - 1) (fun i -> Printf.sprintf "R%d.b = R%d.a" (i + 1) (i + 2))
let cycle n = chain n @ [ Printf.sprintf "R%d.b = R1.a" n ]
let star n = List.init (n - 1) (fun i -> Printf.sprintf "R1.a = R%d.a" (i + 2))

let clique n =
  List.concat
    (List.init n (fun i ->
         List.init (n - i - 1) (fun j ->
             Printf.sprintf "R%d.a = R%d.a" (i + 1) (i + j + 2))))

let join_queries ~seed =
  let db = join_db ~seed in
  List.concat_map
    (fun (shape, n, preds) ->
       let sql = count_query ~n preds in
       [ q db (Printf.sprintf "%s%d_leftdeep" shape n) sql;
         q ~bushy:true db (Printf.sprintf "%s%d_bushy" shape n) sql ])
    [ ("chain", 12, chain 12); ("cycle", 12, cycle 12); ("star", 10, star 10);
      ("clique", 7, clique 7) ]

(* ------------------------------------------------------------------ *)
(* nested_mix: the paper's Emp/Dept nested queries (Sections 4.2, 4.3),
   plus a seeded draw of fuzzer cases over their own small databases,
   printed back to SQL text so the front end parses them afresh.  Emp and
   Dept columns are shuffled fixed multisets, like star_olap's. *)

let emps = 20_000
let depts = 400
let cities = [| "Denver"; "Austin"; "Boston"; "Seattle"; "Chicago"; "Portland" |]

let emp_dept_db ~seed =
  let st = rng seed in
  let db = new_db () in
  let dept =
    Storage.Catalog.create_table ~non_null:[ "did"; "name" ] db.cat ~name:"Dept"
      ~columns:
        [ ("did", Value.Tint); ("name", Value.Tstring); ("loc", Value.Tstring);
          ("budget", Value.Tint); ("num_machines", Value.Tint); ("mgr", Value.Tint) ]
  in
  let emp =
    Storage.Catalog.create_table ~non_null:[ "eid"; "did" ] db.cat ~name:"Emp"
      ~columns:
        [ ("eid", Value.Tint); ("name", Value.Tstring); ("did", Value.Tint);
          ("dept_name", Value.Tstring); ("sal", Value.Tint); ("age", Value.Tint);
          ("mgr", Value.Tint) ]
  in
  (* one department in ten has no employees: the count bug needs them *)
  let populated = depts * 9 / 10 in
  let dept_name d = Printf.sprintf "dept%03d" d in
  let loc = shuffled st depts (fun d -> cities.(d mod Array.length cities)) in
  let budget = shuffled st depts (fun d -> (10 + (d * 490 / (depts - 1))) * 1000) in
  let machines = shuffled st depts (fun d -> d mod 61) in
  let dept_mgr = permutation st emps in
  for d = 0 to depts - 1 do
    Storage.Table.insert dept
      [| Value.Int d; Value.Str (dept_name d); Value.Str loc.(d); Value.Int budget.(d);
         Value.Int machines.(d); Value.Int dept_mgr.(d) |]
  done;
  let did = shuffled st emps (fun e -> e mod populated) in
  let sal = shuffled st emps (fun e -> (30 + (e mod 151)) * 1000) in
  let age = shuffled st emps (fun e -> 21 + (e mod 45)) in
  let mgr = permutation st emps in
  for e = 0 to emps - 1 do
    let d = did.(e) in
    Storage.Table.insert emp
      [| Value.Int e; Value.Str (Printf.sprintf "emp%05d" e); Value.Int d;
         Value.Str (dept_name d); Value.Int sal.(e); Value.Int age.(e); Value.Int mgr.(e) |]
  done;
  ignore (Storage.Catalog.create_index db.cat ~clustered:true ~table:"Emp" ~column:"eid" ());
  ignore (Storage.Catalog.create_index db.cat ~table:"Emp" ~column:"did" ());
  ignore (Storage.Catalog.create_index db.cat ~clustered:true ~table:"Dept" ~column:"did" ());
  db

(* Fuzz.Dbspec.build without its ANALYZE, which the driver times. *)
let db_of_spec (spec : Fuzz.Dbspec.t) =
  let db = new_db () in
  List.iter
    (fun (tb : Fuzz.Dbspec.table) ->
       let t = Storage.Catalog.create_table db.cat ~name:tb.tname ~columns:tb.cols in
       Array.iter (fun r -> Storage.Table.insert t (Array.copy r)) tb.rows;
       List.iter
         (fun (ix : Fuzz.Dbspec.index) ->
            ignore
              (Storage.Catalog.create_index db.cat ~clustered:ix.iclustered
                 ~table:tb.tname ~columns:ix.icols ()))
         tb.indexes)
    spec.tables;
  db

(* The fuzzer cases share one slot of the mix.  They take from 0.03 to about
   3 ms, so as separate slots a seed with one slower case would move the
   median latency from one paper query to the next.  As one slot they stay
   below the median, which falls on the fourth-fastest paper query. *)
let fuzz_cases = 7

let nested_queries ~seed =
  let db = emp_dept_db ~seed in
  let paper =
    [ q db "in_correlated"
        "SELECT E.name FROM Emp E WHERE E.did IN \
         (SELECT D.did FROM Dept D WHERE D.loc = 'Denver' AND E.eid = D.mgr)";
      q db "exists"
        "SELECT D.name FROM Dept D WHERE EXISTS \
         (SELECT * FROM Emp E WHERE E.did = D.did AND E.sal > 170000)";
      q db "not_exists"
        "SELECT D.name FROM Dept D WHERE NOT EXISTS \
         (SELECT * FROM Emp E WHERE E.did = D.did)";
      q db "count_bug"
        "SELECT D.name FROM Dept D WHERE D.num_machines >= \
         (SELECT COUNT(*) FROM Emp E WHERE D.name = E.dept_name)";
      q db "left_outer_join"
        "SELECT D.name, E.name FROM Dept D LEFT OUTER JOIN Emp E \
         ON D.did = E.did AND E.sal > 175000";
      q db "create_view"
        "CREATE VIEW rich AS SELECT name, did, sal FROM Emp WHERE sal > 120000; \
         SELECT D.loc, COUNT(*) AS n FROM rich R, Dept D WHERE R.did = D.did \
         GROUP BY D.loc";
      q db "derived_aggregate"
        "SELECT D.name, A.avgsal FROM Dept D, \
         (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did) A \
         WHERE D.did = A.did AND D.budget > 250000";
      q db "having"
        "SELECT D.loc, COUNT(*) AS n, SUM(E.sal) AS total FROM Emp E, Dept D \
         WHERE E.did = D.did GROUP BY D.loc HAVING COUNT(*) > 3000" ]
  in
  let fuzz =
    List.init fuzz_cases (fun i ->
        let spec, ast = Fuzz.Gen.case ~seed:(Workload.Gen.derive seed (100 + i)) in
        q (db_of_spec spec) (Printf.sprintf "fuzz%d" i) (Sql.Printer.query_to_string ast))
  in
  List.map (fun q -> [ q ]) paper @ [ fuzz ]

let singletons make ~seed = List.map (fun q -> [ q ]) (make ~seed)

let all =
  [ { name = "star_olap"; par_probe = true; make = singletons star_queries };
    { name = "join_enum"; par_probe = false; make = singletons join_queries };
    { name = "nested_mix"; par_probe = false; make = nested_queries } ]
