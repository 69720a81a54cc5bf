(* qopt — a small CLI over the optimizer pipeline.

   The CLI operates on one of the built-in demo databases:
     emp   the paper's Emp/Dept schema (default)
     star  an OLAP star schema (Sales + 3 dimensions)

   Commands:
     qopt run "SELECT ..."        optimize, execute, print rows
     qopt explain "SELECT ..."    print rewrites and the physical plan
     qopt tables                  list tables, row counts, statistics *)

open Relalg

let in_span spans name g =
  match spans with None -> g () | Some r -> Obs.Span.with_span r name g

(* Build the demo database, then ANALYZE it, each in its own span. *)
let load ?spans db_name =
  let cat =
    in_span spans "build" @@ fun () ->
    match db_name with
    | "emp" ->
      let w =
        Workload.Schemas.emp_dept ~emps:5000 ~depts:100 ~analyze:false ()
      in
      w.Workload.Schemas.cat
    | "star" ->
      let w =
        Workload.Schemas.star ~fact_rows:20000 ~dim_rows:100 ~dims:3
          ~analyze:false ()
      in
      w.Workload.Schemas.cat
    | s -> failwith ("unknown demo database: " ^ s ^ " (use emp or star)")
  in
  let db =
    in_span spans "analyze" (fun () -> Stats.Table_stats.analyze_catalog cat)
  in
  (cat, db)

let optimizer_config = function
  | "systemr" -> Core.Pipeline.default_config
  | "bushy" ->
    { Core.Pipeline.default_config with
      join_config = { Systemr.Join_order.default_config with bushy = true } }
  | "naive" -> Core.Pipeline.naive_config
  | s -> failwith ("unknown optimizer: " ^ s ^ " (use systemr, bushy or naive)")

(* Parse and bind as separate steps so they show up as the first two
   spans of the query's telemetry tree. *)
let with_query ?spans db_name sql f =
  let cat, db = in_span spans "load" (fun () -> load ?spans db_name) in
  match
    let stmts = in_span spans "parse" (fun () -> Sql.Parser.parse sql) in
    in_span spans "bind" (fun () -> Sql.Binder.bind_script cat stmts)
  with
  | q -> f cat db q
  | exception Sql.Parser.Error m ->
    Printf.eprintf "parse error: %s\n" m;
    exit 1
  | exception Sql.Binder.Error m ->
    Printf.eprintf "binding error: %s\n" m;
    exit 1
  | exception Sql.Lexer.Error m ->
    Printf.eprintf "lexical error: %s\n" m;
    exit 1

(* Print lint diagnostics collected in the per-block reports; exits 2 on
   errors so --lint works as a CI gate. *)
let print_diags reports =
  let diags = List.concat_map (fun r -> r.Core.Pipeline.diags) reports in
  Fmt.pr "-- lint: %a@." Verify.Diag.pp_list diags;
  if Verify.Diag.has_errors diags then exit 2

let engine_of_string = function
  | "batch" -> `Batch
  | "interpreted" -> `Interpreted
  | s -> failwith ("unknown engine: " ^ s ^ " (use batch or interpreted)")

(* The feedback cache / sketch registry is created once per process and
   carried in the config, so --repeat runs share it and later
   optimizations see what earlier executions recorded. *)
let estimator_of_string = function
  | "histogram" -> `Histogram
  | "feedback" -> `Feedback (Stats.Feedback.create ())
  | "sketch" -> `Sketch (Stats.Sketch.registry_create ())
  | s ->
    failwith
      ("unknown estimator: " ^ s ^ " (use histogram, feedback or sketch)")

(* --bushy / --left-deep override the optimizer preset's tree shape, so the
   CLI drives exactly the code paths the enumeration bench measures. *)
let apply_tree tree (config : Core.Pipeline.config) =
  match tree with
  | `Default -> config
  | `Bushy ->
    { config with
      Core.Pipeline.join_config =
        { config.Core.Pipeline.join_config with
          Systemr.Join_order.bushy = true } }
  | `Left_deep ->
    { config with
      Core.Pipeline.join_config =
        { config.Core.Pipeline.join_config with
          Systemr.Join_order.bushy = false } }

let print_opt_stats reports wall_s =
  let c =
    List.fold_left
      (fun acc r ->
         Systemr.Join_order.counters_add acc r.Core.Pipeline.enum)
      Systemr.Join_order.counters_zero reports
  in
  Fmt.pr
    "-- opt: subsets=%d splits=%d costed=%d pruned=%d wall_ms=%.2f@."
    c.Systemr.Join_order.subsets c.Systemr.Join_order.splits
    c.Systemr.Join_order.costed c.Systemr.Join_order.pruned
    (wall_s *. 1000.)

(* Write every block's optimizer trace as line-delimited JSON. *)
let write_trace_json file reports =
  let oc = open_out file in
  List.iter
    (fun r ->
       List.iter
         (fun e ->
            output_string oc (Obs.Trace.to_json e);
            output_char oc '\n')
         r.Core.Pipeline.trace_events)
    reports;
  close_out oc

(* The qlog record for one CLI run: digests (timed into the
   digest_seconds histogram), per-stage micros from the span tree, root
   est/act rows and worst q-error from the recorders, feedback-cache
   traffic from the estimator. *)
let qlog_record ~sql ~estimator ~est_mode ~engine ~dop ~rows ~wall ~root
    ~reports ~recorders : Obs.Qlog.t =
  let td = Obs.Clock.now () in
  let query_digest = Obs.Trace.digest (String.trim sql) in
  let plan_digest =
    Obs.Trace.digest
      (String.concat ";"
         (List.filter_map
            (fun (r : Core.Pipeline.report) ->
               Option.map (Fmt.str "%a" Exec.Plan.pp) r.Core.Pipeline.plan)
            reports))
  in
  Obs.Metrics.observe_hist Obs.Metrics.digest_seconds
    (Obs.Clock.elapsed_s td);
  let stages =
    match root with
    | None -> []
    | Some r ->
      List.filter_map
        (fun n ->
           let d = Obs.Span.dur_by_name r n in
           if d > 0. then Some (n, d *. 1e6) else None)
        [ "parse"; "bind"; "rewrite"; "optimize"; "verify"; "execute" ]
  in
  let est_rows, act_rows =
    match recorders with
    | r :: _ -> (
      match Exec.Instrument.ops r with
      | (op : Exec.Instrument.op) :: _ ->
        ( op.Exec.Instrument.est_rows,
          if op.Exec.Instrument.executed then
            Some (float_of_int op.Exec.Instrument.act_rows)
          else None )
      | [] -> (None, None))
    | [] -> (None, None)
  in
  let max_qerror =
    List.fold_left
      (fun acc r ->
         match Obs.Analyze.max_q_error r with
         | Some (q, _) when Float.is_finite q ->
           Some (match acc with Some a -> Float.max a q | None -> q)
         | _ -> acc)
      None recorders
  in
  let feedback_hits, feedback_misses =
    match est_mode with
    | `Feedback fb -> (Stats.Feedback.hits fb, Stats.Feedback.misses fb)
    | _ -> (0, 0)
  in
  { Obs.Qlog.ts_us = int_of_float (Unix.gettimeofday () *. 1e6);
    query_digest; plan_digest; estimator; engine; dop = max 1 dop; rows;
    total_us = wall *. 1e6; stages; est_rows; act_rows; max_qerror;
    feedback_hits; feedback_misses }

let run_cmd db_name opt engine dop estimator repeat lint analysis limit tree
    opt_stats analyze trace_json metrics profile_json metrics_out query_log
    print_spans sql =
  let want_spans =
    profile_json <> None || query_log <> None || print_spans
  in
  let spans = if want_spans then Some (Obs.Span.create ()) else None in
  with_query ?spans db_name sql (fun cat db block ->
      let est_mode = estimator_of_string estimator in
      let config =
        apply_tree tree
          { (optimizer_config opt) with
            Core.Pipeline.lint;
            analysis;
            engine = engine_of_string engine;
            dop = max 1 dop;
            estimator = est_mode;
            instrument =
              analyze || trace_json <> None || profile_json <> None;
            spans }
      in
      (* Warm-up repeats share the estimator state: under --estimator
         feedback/sketch, the final (printed) run re-optimizes with the
         actual cardinalities / sketches its predecessors recorded.
         They run span-less so the telemetry tree covers only the
         printed run. *)
      for _ = 2 to max 1 repeat do
        ignore
          (Core.Pipeline.run_query
             ~config:{ config with Core.Pipeline.spans = None }
             cat db block)
      done;
      let ctx = Exec.Context.create () in
      let t0 = Obs.Clock.now () in
      let result, pairs =
        Core.Pipeline.run_query_full ~ctx ~config cat db block
      in
      let wall = Obs.Clock.elapsed_s t0 in
      let reports = List.map fst pairs in
      let analyze_text =
        if not analyze then None
        else
          let many = List.length pairs > 1 in
          Some
            (String.concat ""
               (List.mapi
                  (fun i (_, recorder) ->
                     (if many then
                        Printf.sprintf "-- union arm %d\n" (i + 1)
                      else "")
                     ^
                     match recorder with
                     | Some r -> Obs.Analyze.render r
                     | None ->
                       "(correlated query: tuple-iteration interpreter — \
                        no per-operator statistics)\n")
                  pairs))
      in
      let n = Array.length result.Exec.Executor.rows in
      Fmt.pr "%a@." Schema.pp result.Exec.Executor.schema;
      Array.iteri
        (fun i t -> if i < limit then Fmt.pr "%a@." Tuple.pp t)
        result.Exec.Executor.rows;
      if n > limit then Fmt.pr "... (%d more rows)@." (n - limit);
      Fmt.pr "-- %d rows; %a; path: %s@." n Exec.Context.pp ctx
        (String.concat "+"
           (List.map
              (fun r ->
                 match r.Core.Pipeline.path with
                 | Core.Pipeline.Planned -> "planned"
                 | Core.Pipeline.Interpreted -> "interpreted")
              reports));
      (match analyze_text with
       | Some text -> Fmt.pr "-- analyze:@.%s" text
       | None -> ());
      (match trace_json with
       | Some file -> write_trace_json file reports
       | None -> ());
      (* close the span tree before anything renders or logs it *)
      let root = Option.map Obs.Span.finish spans in
      (match root with
       | Some r when print_spans -> Fmt.pr "-- spans:@.%s" (Obs.Span.render r)
       | _ -> ());
      (match profile_json with
       | Some file ->
         let recorders =
           List.mapi
             (fun i (_, recorder) ->
                Option.map
                  (fun r -> (Printf.sprintf "block %d" (i + 1), r))
                  recorder)
             pairs
           |> List.filter_map Fun.id
         in
         Obs.Profile.write_file ?span:root recorders file
       | None -> ());
      (match query_log with
       | Some file ->
         Obs.Qlog.append ~path:file
           (qlog_record ~sql ~estimator ~est_mode ~engine ~dop ~rows:n ~wall
              ~root ~reports
              ~recorders:(List.filter_map snd pairs))
       | None -> ());
      (match metrics_out with
       | Some file -> Obs.Prometheus.write_file file
       | None -> ());
      if opt_stats then print_opt_stats reports wall;
      if metrics then print_endline (Obs.Metrics.render ());
      if lint || analysis then print_diags reports)

let explain_cmd db_name opt lint analysis tree sql =
  with_query db_name sql (fun cat db block ->
      let config =
        apply_tree tree
          { (optimizer_config opt) with Core.Pipeline.lint; analysis }
      in
      print_endline (Core.Pipeline.explain_query ~config cat db block))

let tables_cmd db_name =
  let cat, db = load db_name in
  List.iter
    (fun name ->
       let t = Storage.Catalog.table cat name in
       Fmt.pr "%a@." Storage.Table.pp t;
       List.iter
         (fun idx -> Fmt.pr "  %a@." Storage.Btree.pp idx)
         (Storage.Catalog.indexes cat name);
       match Stats.Table_stats.find db name with
       | Some ts -> Fmt.pr "  @[<v>%a@]@." Stats.Table_stats.pp ts
       | None -> ())
    (Storage.Catalog.table_names cat)

(* ------------------------------------------------------------------ *)

open Cmdliner

let db_arg =
  Arg.(value & opt string "emp"
       & info [ "d"; "database" ] ~docv:"DB"
           ~doc:"Demo database to query: emp or star.")

let opt_arg =
  Arg.(value & opt string "systemr"
       & info [ "o"; "optimizer" ] ~docv:"OPT"
           ~doc:"Optimizer pipeline: systemr, bushy or naive (no rewrites).")

let limit_arg =
  Arg.(value & opt int 20
       & info [ "n"; "limit" ] ~docv:"N" ~doc:"Rows to print.")

let engine_arg =
  Arg.(value & opt string "batch"
       & info [ "e"; "engine" ] ~docv:"ENGINE"
           ~doc:"Plan execution engine: batch (vectorized) or interpreted \
                 (tuple-at-a-time oracle). Both produce identical rows and \
                 cost accounting.")

let dop_arg =
  Arg.(value & opt int 1
       & info [ "dop" ] ~docv:"N"
           ~doc:"Degree of parallelism for plan execution (batch engine \
                 only). N > 1 runs plans on the morsel-driven parallel \
                 engine, with per-operator parallelism taken from the \
                 two-phase segment schedule; rows and cost accounting are \
                 bit-identical to --dop 1.")

let estimator_arg =
  Arg.(value & opt string "histogram"
       & info [ "estimator" ] ~docv:"EST"
           ~doc:"Cardinality estimator: histogram (stock derivation), \
                 feedback (cache actual cardinalities from execution and \
                 reuse them on re-optimization) or sketch (Fast-AGMS \
                 sketches built during batch/morsel scans drive join \
                 selectivities). feedback and sketch pay off with \
                 --repeat > 1: the state persists across repeats.")

let repeat_arg =
  Arg.(value & opt int 1
       & info [ "repeat" ] ~docv:"N"
           ~doc:"Run the query N times (printing the last run). With \
                 --estimator feedback or sketch, later runs re-optimize \
                 using what earlier executions recorded.")

let lint_arg =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Statically verify every rewrite step and physical plan; \
                 print diagnostics (exit 2 on lint errors under run).")

let analysis_arg =
  Arg.(value & flag
       & info [ "analysis" ]
           ~doc:"Abstract-interpretation pass: fold provably-empty \
                 subtrees, derive transitive range predicates, and lint \
                 cardinality estimates against the provable envelope \
                 (est-above-envelope, est-below-envelope, \
                 est-zero-nonempty); prints diagnostics under run.")

let tree_arg =
  Arg.(value
       & vflag `Default
           [ (`Bushy,
              info [ "bushy" ]
                ~doc:"Enumerate bushy join trees (overrides the optimizer \
                      preset's shape).");
             (`Left_deep,
              info [ "left-deep" ]
                ~doc:"Enumerate left-deep join trees only (overrides the \
                      optimizer preset's shape).") ])

let opt_stats_arg =
  Arg.(value & flag
       & info [ "opt-stats" ]
           ~doc:"Print enumeration counters (DP subsets, splits considered, \
                 plans costed, plans pruned) and end-to-end wall time.")

let analyze_arg =
  Arg.(value & flag
       & info [ "analyze" ]
           ~doc:"EXPLAIN ANALYZE: execute with per-operator instrumentation \
                 and print estimated vs. actual rows, q-error, rescans, \
                 counter deltas and wall time for every operator.")

let trace_json_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-json" ] ~docv:"FILE"
           ~doc:"Write the structured optimizer trace (rewrites fired and \
                 rejected, per-level enumeration counters, prunes, \
                 interesting-order retentions, memo statistics) to FILE as \
                 line-delimited JSON.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the process-wide metrics registry (queries run, \
                 blocks planned, max q-error, ...) after the query.")

let profile_json_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-json" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event profile to FILE: the query's \
                 span tree (parse, bind, rewrite, optimize, verify, \
                 execute) on one track plus, at --dop > 1, each morsel \
                 worker's task timeline on its own track. Load it in \
                 Perfetto (ui.perfetto.dev) or chrome://tracing.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the metrics registry (counters, gauges, latency \
                 histograms with cumulative buckets) to FILE in \
                 Prometheus text exposition format.")

let query_log_arg =
  Arg.(value & opt (some string) None
       & info [ "query-log" ] ~docv:"FILE"
           ~doc:"Append one NDJSON record for this run to FILE: query and \
                 plan digests, per-stage latencies, estimated vs. actual \
                 root rows, worst q-error, and feedback-cache traffic.")

let spans_arg =
  Arg.(value & flag
       & info [ "spans" ]
           ~doc:"Print the query's span tree (wall-clock per pipeline \
                 stage, nested) after the rows.")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let run_t =
  Cmd.v (Cmd.info "run" ~doc:"Optimize and execute a SQL query")
    Term.(
      const run_cmd $ db_arg $ opt_arg $ engine_arg $ dop_arg
      $ estimator_arg $ repeat_arg $ lint_arg $ analysis_arg
      $ limit_arg $ tree_arg $ opt_stats_arg $ analyze_arg $ trace_json_arg
      $ metrics_arg $ profile_json_arg $ metrics_out_arg $ query_log_arg
      $ spans_arg $ sql_arg)

let explain_t =
  Cmd.v (Cmd.info "explain" ~doc:"Show rewrites and the chosen physical plan")
    Term.(
      const explain_cmd $ db_arg $ opt_arg $ lint_arg $ analysis_arg
      $ tree_arg $ sql_arg)

let tables_t =
  Cmd.v (Cmd.info "tables" ~doc:"List tables, indexes and statistics")
    Term.(const tables_cmd $ db_arg)

let main =
  Cmd.group
    (Cmd.info "qopt" ~version:"1.0"
       ~doc:"Cost-based SQL query optimizer (PODS'98 survey reproduction)")
    [ run_t; explain_t; tables_t ]

let () = exit (Cmd.eval main)
