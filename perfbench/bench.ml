(* End-to-end query benchmark: one client in a closed loop sends each query
   only after the previous one has returned its rows.  The measured path is
   SQL text -> Sql.Parser.parse -> Sql.Binder.bind_script ->
   Core.Pipeline.run_query -> rows.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--nproc N]

   --trace 0 times the loop with tracing off and prints the end-to-end
   metrics; --trace 1 alternates untraced and traced executions of each
   query and prints the per-layer metrics.  Every result is checked
   against the interpreted engine's rows.  End-to-end times are scaled to
   a reference host speed (see [calibrate]).  The last stdout line is the
   result object; the line before it records host and run facts. *)

open Workloads

let now = Obs.Clock.now
let elapsed = Obs.Clock.elapsed_s

let time f =
  let t0 = now () in
  let x = f () in
  (x, elapsed t0)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted l = List.sort compare l

(* Linear interpolation between closest ranks. *)
let percentile p = function
  | [] -> nan
  | l ->
    let a = Array.of_list (sorted l) in
    let pos = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.

(* ------------------------------------------------------------------ *)
(* Host speed.  On a shared virtual machine the same code runs up to 50%
   slower for minutes at a time, mostly through the shared cache and
   memory.  A fixed loop over a 2.4 MB array, timed next to the work it
   calibrates, measures that speed: a time [t] measured while the loop
   took [c] seconds is reported as [t *. ref_cal_s /. c], the time it
   would take at the reference speed.  The loop runs once untimed first,
   so the cache state the program left behind does not reach the timed
   run.  [ref_cal_s] is the timed run's mean on a 2-vCPU x86-64 VM with
   a 105 MB shared L3.  Neither loop nor array belongs to the program
   under test, so a change to the program cannot move them. *)

let cal_data = Array.init 300_000 (fun i -> i land 255)
let ref_cal_s = 5e-4

let cal_loop () =
  let x = ref 0 in
  for j = 0 to Array.length cal_data - 1 do
    x := !x + (cal_data.(j) * j)
  done;
  ignore (Sys.opaque_identity !x)

let calibrate () =
  cal_loop ();
  let t0 = now () in
  cal_loop ();
  elapsed t0

let speed_factor cals = ref_cal_s /. median cals

(* ------------------------------------------------------------------ *)
(* Set-up: data generation and table/index build, then ANALYZE *)

type setup = { slots : query list list; build_s : float; analyze_s : float }

let setup (w : Workloads.t) ~seed =
  let slots, build_s = time (fun () -> w.make ~seed) in
  let dbs =
    List.fold_left
      (fun acc (q : query) -> if List.memq q.db acc then acc else q.db :: acc)
      [] (List.concat slots)
  in
  let (), analyze_s =
    time (fun () ->
        List.iter (fun db -> db.stats <- Stats.Table_stats.analyze_catalog db.cat) dbs)
  in
  { slots; build_s; analyze_s }

(* Repeat the set-up at least [min_setup_reps] times and until the
   repetitions add up to [setup_budget_s], then report the repetition whose
   total is the median, so its two parts sum to the reported set-up time.
   A full collection before each repetition keeps one repetition's garbage
   out of the next one's time and out of the heap peak.  Each repetition
   is scaled by calibrations taken just before and after it. *)
let min_setup_reps = 3
let max_setup_reps = 51
let setup_budget_s = 1.0
let cal_reps = 3

let median_setup w ~seed =
  let times = ref [] and last = ref None and spent = ref 0. in
  while
    List.length !times < min_setup_reps
    || (!spent < setup_budget_s && List.length !times < max_setup_reps)
  do
    last := None;
    Gc.full_major ();
    let before = List.init cal_reps (fun _ -> calibrate ()) in
    let s = setup w ~seed in
    let k = speed_factor (before @ List.init cal_reps (fun _ -> calibrate ())) in
    times := (k *. s.build_s, k *. s.analyze_s) :: !times;
    spent := !spent +. s.build_s +. s.analyze_s;
    last := Some s
  done;
  let total (b, a) = b +. a in
  let reps = List.length !times in
  let build_s, analyze_s =
    List.nth (List.sort (fun x y -> compare (total x) (total y)) !times) (reps / 2)
  in
  ({ (Option.get !last) with build_s; analyze_s }, reps)

(* ------------------------------------------------------------------ *)
(* Running and checking one query *)

let config_for ~dop (q : query) =
  let c = Core.Pipeline.default_config in
  let c =
    if q.bushy then
      { c with join_config = { c.join_config with Systemr.Join_order.bushy = true } }
    else c
  in
  { c with dop }

let run_query ~config (q : query) =
  let stmts = Sql.Parser.parse q.sql in
  let qgm = Sql.Binder.bind_script q.db.cat stmts in
  let ctx = Exec.Context.create () in
  let result, _ = Core.Pipeline.run_query ~ctx ~config q.db.cat q.db.stats qgm in
  (result, ctx)

(* Row count and an order-aware checksum: row order is part of the answer
   the engines must agree on. *)
let answer (r : Exec.Executor.result) =
  ( Array.length r.rows,
    Array.fold_left (fun h row -> ((h * 1_000_003) lxor Hashtbl.hash row) land max_int)
      (List.length r.schema) r.rows )

(* The interpreted engine (Exec.Executor) is the oracle; it also yields
   plan_cost, which every engine and dop must reproduce exactly. *)
let oracle q =
  let config = { (config_for ~dop:1 q) with engine = `Interpreted } in
  let r, ctx = run_query ~config q in
  (answer r, Exec.Context.weighted_cost ctx)

(* ------------------------------------------------------------------ *)
(* Traced execution: the benchmark's own spans around parse and bind, the
   pipeline's span recorder and per-operator instrumentation below. *)

let layer_of (s : Obs.Span.t) =
  match s.name with
  | "parse" | "bind" -> "sql"
  | "rewrite" -> "rewrite"
  | "block" | "optimize" | "view" -> "core"
  | "enumerate" -> "systemr"
  | "execute" when List.assoc_opt "engine" s.attrs = Some "morsel" -> "exec.par"
  | "execute" -> "exec"
  | _ -> "unattributed"

(* "exec.par" is not among them: the layers' self times split the dop-1
   traced latency, and the probe's is reported as exec.par.self_ms. *)
let layers = [ "sql"; "rewrite"; "core"; "systemr"; "exec"; "unattributed" ]

let op_class (p : Exec.Plan.t) =
  match p with
  | Seq_scan _ -> "seq_scan"
  | Index_scan _ -> "index_scan"
  | Filter _ | Project _ -> "filter_project"
  | Hash_join _ -> "hash_join"
  | Merge_join _ -> "merge_join"
  | Nested_loop _ | Index_nl _ -> "nested_loop"
  | Sort _ -> "sort"
  | Hash_agg _ -> "hash_agg"
  | Hash_distinct _ -> "distinct"
  | Materialize _ | Stream_agg _ -> "other"

let op_classes =
  [ "seq_scan"; "index_scan"; "filter_project"; "hash_join"; "merge_join";
    "nested_loop"; "sort"; "hash_agg"; "distinct"; "other" ]

(* Sums over every traced execution, divided by their count at the end. *)
type acc = {
  sums : (string, float) Hashtbl.t;
  mutable traced : int;
  mutable qerrors : float list;
  mutable cost_ratios : float list;
  mutable busy : float array;  (** per-worker busy seconds *)
}

let new_acc () =
  { sums = Hashtbl.create 64; traced = 0; qerrors = []; cost_ratios = []; busy = [||] }

let add acc k v =
  Hashtbl.replace acc.sums k (v +. Option.value (Hashtbl.find_opt acc.sums k) ~default:0.)

let get acc k = Option.value (Hashtbl.find_opt acc.sums k) ~default:0.

let record_spans acc ~latency (root : Obs.Span.t) =
  let rec walk ~in_view (s : Obs.Span.t) =
    add acc ("self." ^ layer_of s) (s.dur_s -. Obs.Span.children_dur s);
    (match s.name with
     | "parse" -> add acc "sql.parse_s" s.dur_s
     | "bind" -> add acc "sql.bind_s" s.dur_s
     | "rewrite" -> add acc "rewrite.s" s.dur_s
     | "enumerate" -> add acc "systemr.enumerate_s" s.dur_s
     | "execute" -> add acc "exec.execute_s" s.dur_s
     | "view" ->
       add acc "core.views_materialized" 1.;
       if not in_view then add acc "core.view_s" s.dur_s
     | _ -> ());
    List.iter (walk ~in_view:(in_view || s.name = "view")) s.children
  in
  walk ~in_view:false root;
  add acc "self.unattributed" (latency -. root.dur_s);
  add acc "latency_s" latency

let record_report acc (r : Core.Pipeline.report) =
  let e = r.enum in
  if r.path = Core.Pipeline.Interpreted then add acc "core.interpreted_blocks" 1.;
  add acc "systemr.subsets" (float_of_int e.subsets);
  add acc "systemr.splits" (float_of_int e.splits);
  add acc "systemr.costed" (float_of_int e.costed);
  add acc "systemr.pruned" (float_of_int e.pruned);
  add acc "rewrite.rules_fired" (float_of_int (List.fold_left (fun n (_, k) -> n + k) 0 r.trace));
  List.iter
    (fun (op : Exec.Instrument.op) ->
       if op.executed then begin
         add acc ("exec.op." ^ op_class op.node) op.wall_s;
         (match Obs.Analyze.op_q_error op with
          | Some qe when Float.is_finite qe -> acc.qerrors <- qe :: acc.qerrors
          | _ -> ());
         match op.par with
         | None -> ()
         | Some p ->
           let n = Array.length p.worker_wall in
           if Array.length acc.busy < n then
             acc.busy <- Array.init n (fun i -> if i < Array.length acc.busy then acc.busy.(i) else 0.);
           Array.iteri (fun i w -> acc.busy.(i) <- acc.busy.(i) +. w) p.worker_wall
       end)
    r.op_stats

let run_traced acc ~config (q : query) =
  let rec_ = Obs.Span.create () in
  let t0 = now () in
  let w0 = Gc.minor_words () in
  let stmts = Obs.Span.with_span rec_ "parse" (fun () -> Sql.Parser.parse q.sql) in
  let qgm = Obs.Span.with_span rec_ "bind" (fun () -> Sql.Binder.bind_script q.db.cat stmts) in
  let sql_words = Gc.minor_words () -. w0 in
  let ctx = Exec.Context.create () in
  let config = { config with Core.Pipeline.spans = Some rec_; instrument = true } in
  let result, reports = Core.Pipeline.run_query ~ctx ~config q.db.cat q.db.stats qgm in
  let root = Obs.Span.finish rec_ in
  let latency = elapsed t0 in
  acc.traced <- acc.traced + 1;
  record_spans acc ~latency root;
  add acc "sql.alloc_words" sql_words;
  List.iter (record_report acc) reports;
  add acc "exec.io_pages" (float_of_int (Exec.Context.total_io ctx));
  add acc "exec.spill_pages" (float_of_int ctx.spill_io);
  add acc "exec.cpu_ops" (float_of_int ctx.cpu_ops);
  let est = sum (List.map (fun (r : Core.Pipeline.report) -> r.est_cost) reports) in
  let measured = Exec.Context.weighted_cost ctx in
  if est > 0. && measured > 0. then acc.cost_ratios <- (est /. measured) :: acc.cost_ratios;
  (result, latency)

(* ------------------------------------------------------------------ *)
(* The closed loop *)

type loop = {
  mutable attempted : int;
  mutable failed : int;
  latencies : float list array;  (** untraced seconds at reference speed, per query *)
  traced_lat : float list array;  (** traced seconds at reference speed, per query *)
  mutable wall : float list;  (** untraced seconds as measured *)
  mutable cals : float list;  (** every calibration time *)
}

let min_samples = 100

(* Runs whole passes over the mix until [seconds] have passed and at least
   [min_samples] untraced queries were attempted; pass [p] runs query
   [p mod k] of each slot of [k] queries ([slots] holds indices into
   [queries]).  A calibration precedes every timed query, and a pass's
   times are scaled by the median of its calibrations.  With [probe], the
   traced pass also runs each query traced at the probe's configs, into
   the second accumulator.  A query that raises or returns rows differing
   from the oracle's counts as failed. *)
let closed_loop ~seconds ~traced ~probe ~configs ~slots queries expected =
  let n = Array.length queries in
  let l =
    { attempted = 0; failed = 0; latencies = Array.make n []; traced_lat = Array.make n [];
      wall = []; cals = [] }
  in
  let acc = new_acc () and par_acc = new_acc () in
  let untraced = ref 0 in
  (* the current pass's calibrations and (query, traced, seconds) samples *)
  let cals = ref [] and samples = ref [] in
  let once i mode =
    l.attempted <- l.attempted + 1;
    if mode = `Untraced then incr untraced;
    if mode <> `Probe then cals := calibrate () :: !cals;
    match
      match mode with
      | `Untraced ->
        let t0 = now () in
        let r, _ = run_query ~config:configs.(i) queries.(i) in
        (r, elapsed t0)
      | `Traced -> run_traced acc ~config:configs.(i) queries.(i)
      | `Probe -> run_traced par_acc ~config:(Option.get probe).(i) queries.(i)
    with
    | r, dt when answer r = fst expected.(i) ->
      if mode <> `Probe then samples := (i, mode = `Traced, dt) :: !samples
    | _ -> l.failed <- l.failed + 1
    | exception e ->
      prerr_endline (Printf.sprintf "%s: %s" queries.(i).label (Printexc.to_string e));
      l.failed <- l.failed + 1
  in
  let end_pass () =
    if !cals <> [] then begin
      let k = speed_factor !cals in
      List.iter
        (fun (i, traced_run, dt) ->
           if traced_run then l.traced_lat.(i) <- (k *. dt) :: l.traced_lat.(i)
           else begin
             l.latencies.(i) <- (k *. dt) :: l.latencies.(i);
             l.wall <- dt :: l.wall
           end)
        !samples;
      l.cals <- !cals @ l.cals
    end;
    cals := [];
    samples := []
  in
  let t0 = now () in
  let pass = ref 0 in
  while elapsed t0 < seconds || !untraced < min_samples do
    Array.iter
      (fun slot ->
         let i = slot.(!pass mod Array.length slot) in
         (* alternate which side runs first so drift affects both equally *)
         if traced then begin
           let first, second = if !pass mod 2 = 1 then (`Traced, `Untraced) else (`Untraced, `Traced) in
           once i first;
           once i second;
           if probe <> None then once i `Probe
         end
         else once i `Untraced)
      slots;
    end_pass ();
    incr pass
  done;
  (l, acc, par_acc, elapsed t0)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metric (name, unit, v) =
  let v = if Float.is_finite v then v else -1. in
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* qps is untraced queries over their summed latency: the rate of one
   client with no time between queries, at the reference speed. *)
let end_to_end ~(st : setup) ~(l : loop) ~plan_cost ~alloc_words =
  let all = List.concat (Array.to_list l.latencies) in
  let gc = Gc.quick_stat () in
  [ ("qps", "1/s", float_of_int (List.length all) /. sum all);
    ("latency_p50_ms", "ms", 1e3 *. median all);
    ("latency_p90_ms", "ms", 1e3 *. percentile 0.9 all);
    ("plan_cost", "cost", plan_cost);
    ("alloc_words_per_query", "words", alloc_words /. float_of_int l.attempted);
    ("top_heap_mb", "MB", float_of_int (gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    ("setup_s", "s", st.build_s +. st.analyze_s) ]

(* [par_acc] holds the probe's executions at the host's dop; the
   [exec.par] metrics come from it, the others from the dop-1 executions. *)
let per_layer ~(st : setup) ~(l : loop) (acc : acc) (par_acc : acc) =
  let n = float_of_int (max 1 acc.traced) in
  let per k = get acc k /. n in
  let ms k = 1e3 *. per k in
  let par_ms k = 1e3 *. get par_acc k /. float_of_int (max 1 par_acc.traced) in
  let busy = par_acc.busy in
  let busy_total = Array.fold_left ( +. ) 0. busy in
  let workers = float_of_int (Array.length busy) in
  let sum_medians a = sum (Array.to_list (Array.map median a)) in
  [ ("sql.parse_ms", "ms", ms "sql.parse_s");
    ("sql.bind_ms", "ms", ms "sql.bind_s");
    ("sql.alloc_words", "words", per "sql.alloc_words");
    ("rewrite.ms", "ms", ms "rewrite.s");
    ("rewrite.rules_fired", "count", per "rewrite.rules_fired");
    ("core.view_ms", "ms", ms "core.view_s");
    ("core.views_materialized", "count", per "core.views_materialized");
    ("core.interpreted_blocks", "count", per "core.interpreted_blocks");
    ("systemr.enumerate_ms", "ms", ms "systemr.enumerate_s");
    ("systemr.subsets", "count", per "systemr.subsets");
    ("systemr.splits", "count", per "systemr.splits");
    ("systemr.costed", "count", per "systemr.costed");
    ("systemr.pruned", "count", per "systemr.pruned");
    ("systemr.prune_ratio", "ratio",
     if get acc "systemr.costed" > 0. then get acc "systemr.pruned" /. get acc "systemr.costed"
     else 0.);
    ("storage.build_s", "s", st.build_s);
    ("stats.analyze_s", "s", st.analyze_s);
    ("stats.max_qerror", "ratio", List.fold_left Float.max 1. acc.qerrors);
    ("stats.median_qerror", "ratio", if acc.qerrors = [] then 1. else median acc.qerrors);
    ("cost.est_over_measured", "ratio", if acc.cost_ratios = [] then 0. else median acc.cost_ratios);
    ("exec.execute_ms", "ms", ms "exec.execute_s") ]
  @ List.map (fun c -> ("exec.op." ^ c ^ "_ms", "ms", ms ("exec.op." ^ c))) op_classes
  @ [ ("exec.io_pages", "pages", per "exec.io_pages");
      ("exec.spill_pages", "pages", per "exec.spill_pages");
      ("exec.cpu_ops", "count", per "exec.cpu_ops");
      ("exec.par.latency_ms", "ms", par_ms "latency_s");
      ("exec.par.self_ms", "ms", par_ms "self.exec.par");
      ("exec.par.worker_busy_ms", "ms", 1e3 *. busy_total /. float_of_int (max 1 par_acc.traced));
      ("exec.par.imbalance", "ratio",
       if busy_total > 0. then Array.fold_left Float.max 0. busy /. (busy_total /. workers) else 0.);
      ("exec.par.coordinator_share", "ratio", if busy_total > 0. then busy.(0) /. busy_total else 0.);
      ("obs.trace_overhead_pct", "%",
       100. *. ((sum_medians l.traced_lat /. sum_medians l.latencies) -. 1.));
      ("trace.latency_ms", "ms", ms "latency_s") ]
  @ List.map (fun layer -> ("self." ^ layer ^ "_ms", "ms", ms ("self." ^ layer))) layers

(* ------------------------------------------------------------------ *)
(* Main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let nproc = ref (Domain_pool.cpu_count ()) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " data and query seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--nproc", Arg.Set_int nproc, " CPUs available to this process") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let host_dop = max 1 (min !nproc (Domain_pool.cpu_count ())) in
  let traced = !trace = 1 in
  let st, setup_reps = median_setup w ~seed:!seed in
  let queries = Array.of_list (List.concat st.slots) in
  let slots =
    let next = ref 0 in
    Array.of_list
      (List.map
         (fun slot -> Array.of_list (List.map (fun _ -> incr next; !next - 1) slot))
         st.slots)
  in
  let configs = Array.map (config_for ~dop:1) queries in
  let probe =
    if traced && w.par_probe && host_dop > 1 then
      Some (Array.map (config_for ~dop:host_dop) queries)
    else None
  in
  let expected, oracle_s = time (fun () -> Array.map oracle queries) in
  Printf.eprintf "setup: build %.3f s + analyze %.3f s (median of %d); oracle pass %.3f s\n"
    st.build_s st.analyze_s setup_reps oracle_s;
  (* warm-up passes: check rows and costs before anything is timed; the
     probe's dop must reproduce dop 1's costs exactly *)
  let mismatches = ref 0 in
  let warm_up configs =
    Array.fold_left ( +. ) 0.
      (Array.mapi
         (fun i (q : query) ->
            match run_query ~config:configs.(i) q with
            | r, ctx ->
              let cost = Exec.Context.weighted_cost ctx in
              if (answer r, cost) <> expected.(i) then begin
                prerr_endline (q.label ^ ": rows or cost differ from the interpreted engine's");
                incr mismatches
              end;
              cost
            | exception e ->
              prerr_endline (q.label ^ ": " ^ Printexc.to_string e);
              incr mismatches;
              0.)
         queries)
  in
  let plan_cost = warm_up configs in
  Option.iter (fun c -> ignore (warm_up c)) probe;
  let gc0 = Gc.quick_stat () in
  let l, acc, par_acc, wall =
    closed_loop ~seconds:(float_of_int !seconds) ~traced ~probe ~configs ~slots queries expected
  in
  let gc1 = Gc.quick_stat () in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let samples = List.length (List.concat (Array.to_list l.latencies)) in
  Array.iteri
    (fun i (q : query) ->
       Printf.eprintf "%-20s %4d samples  median %9.3f ms%s\n" q.label
         (List.length l.latencies.(i)) (1e3 *. median l.latencies.(i))
         (if traced then Printf.sprintf "  traced %9.3f ms" (1e3 *. median l.traced_lat.(i)) else ""))
    queries;
  let failed = l.failed + !mismatches in
  let warm_ups = if probe = None then 1 else 2 in
  let attempted = l.attempted + (warm_ups * Array.length queries) in
  (* the untraced figures as measured, before scaling to the reference speed *)
  let untraced_wall = List.fold_left ( +. ) 0. l.wall in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"cpu_count\": %d, \
     \"domains_available\": %b, \"dop\": 1, \"probe_dop\": %d, \"ocaml\": %S, \
     \"samples\": %d, \"traced_samples\": %d, \"probe_samples\": %d, \"error_rate\": %s, \
     \"setup_reps\": %d, \"host_speed\": %s, \"measured_qps\": %s, \
     \"measured_p50_ms\": %s, \"measured_p90_ms\": %s, \"loop_s\": %s}\n"
    w.name !seed !nproc (Domain_pool.cpu_count ()) Domain_pool.available
    (if probe = None then 0 else host_dop) Sys.ocaml_version samples acc.traced par_acc.traced
    (json_num (float_of_int failed /. float_of_int attempted)) setup_reps
    (json_num (speed_factor l.cals))
    (json_num (float_of_int (List.length l.wall) /. untraced_wall))
    (json_num (1e3 *. median l.wall)) (json_num (1e3 *. percentile 0.9 l.wall)) (json_num wall);
  let metrics =
    if traced then per_layer ~st ~l acc par_acc
    else end_to_end ~st ~l ~plan_cost ~alloc_words:(words gc1 -. words gc0)
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1
