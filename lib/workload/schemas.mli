(** Synthetic databases for examples, tests and experiments: the paper's
    Emp/Dept schema, an OLAP star schema, and chain/cycle/star/clique join
    workloads. *)

(** {2 Emp/Dept (Sections 4.2 and 4.3)} *)

type emp_dept = {
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  emps : int;
  depts : int;
}

(** Emp(eid, name, did, dept_name, sal, age, mgr) and Dept(did, name, loc,
    budget, num_machines, mgr); [empty_dept_frac] controls departments
    with no employees (needed by the count-bug experiments).  Indexes:
    Emp(eid) clustered, Emp(did), Dept(did) clustered.  [~analyze:false]
    leaves [db] empty, for a caller that ANALYZEs the catalog itself. *)
val emp_dept :
  ?seed:int -> ?emps:int -> ?depts:int -> ?empty_dept_frac:float ->
  ?analyze:bool -> unit -> emp_dept

(** {2 OLAP star schema (Section 4.1.1)} *)

type star = {
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  fact : string;  (** "Sales"; fk columns are <dim>_id *)
  dims : string list;
}

(** Sales fact plus dimension tables; per-fk indexes and a composite index
    over all foreign keys (the access path that makes dimension Cartesian
    products worthwhile).  [~analyze:false] as for {!emp_dept}. *)
val star :
  ?seed:int -> ?fact_rows:int -> ?dim_rows:int -> ?dims:int ->
  ?analyze:bool -> unit -> star

(** {2 Chain / cycle / star / clique join workloads} *)

type shape = Chain_q | Cycle_q | Star_q | Clique_q

type join_pieces = {
  jcat : Storage.Catalog.t;
  jdb : Stats.Table_stats.db;
  relations : (string * string) list;  (** (alias, table) *)
  predicates : Relalg.Expr.t list;
}

(** n relations R1..Rn of [rows] tuples with columns a, b, c; predicates
    follow the requested query-graph shape. *)
val join_shape :
  ?seed:int -> ?rows:int -> shape:shape -> n:int -> unit -> join_pieces
