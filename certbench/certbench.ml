(* certbench: the certify-and-serve pipeline benchmark.

   One process runs one workload end to end — generate a graph, build the
   paper's spanners and certificate, verify them locally, compile and save
   the distance oracle, load it back and serve query batches — and prints
   every metric by name with its unit.  The last line of standard output
   is one JSON object: {"correct", "attempted", "failed", "metrics"}.

     certbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--fingerprints FILE] [--out DIR] [--commit ID]
                   [--inject drop-edge|perturb-answer]
     certbench.exe --record-fingerprints FROM TO

   --trace 0 reports the end-to-end metrics; --trace 1 re-runs the same
   work with spans around every call into a layer and reports the
   per-layer metrics, self times and the tracing overhead.  Reported
   times are scaled to a fixed host speed by the reference job in
   reference.ml; the wall-clock values are printed beside them.  Every
   output is checked; any failed check makes the exit code 1.  See
   README.md. *)

open Ultraspan

let k = 3
let ultra_t = 4

(* ---------- workloads ---------- *)

type family = {
  fam : string;  (** key in the fingerprint table *)
  n : int;
  degree : float;
  batch : int;  (** queries per batch *)
  hot : int;  (** hot sources per batch *)
  samples : int;  (** served answers checked per batch, each way *)
}

let dense = { fam = "dense"; n = 1000; degree = 125.; batch = 1000; hot = 16; samples = 2 }
let sparse = { fam = "sparse"; n = 20_000; degree = 8.; batch = 10; hot = 1; samples = 1 }

type workload = {
  wname : string;
  family : family;
  pipeline : string list;  (** steps timed by [time_to_artifact_s] *)
  headline : [ `Bs_derand | `Ultra_sparse ];
}

let workloads =
  [
    {
      wname = "dense-certify";
      family = dense;
      pipeline =
        [ "bs_derand"; "verify.spanner"; "thurimella.certificate"; "verify.certificate";
          "oracle.compile"; "oracle.save" ];
      headline = `Bs_derand;
    };
    {
      wname = "sparse-build";
      family = sparse;
      pipeline =
        [ "bs_derand"; "linear_size"; "ultra_sparse"; "bs_distributed";
          "thurimella.certificate"; "verify.certificate"; "verify.spanner";
          "oracle.compile"; "oracle.save" ];
      headline = `Ultra_sparse;
    };
  ]

let min_reps = 3

(* Batches served after each repetition's pipeline: the window's p90 has
   10 batches beyond it.  A reference sample is taken every [chunk]
   batches. *)
let window = 100
let chunk = 5

(* Domains for every layer that takes [~jobs] in the timed work: the
   cores but one, at least 1 and at most 4.  The core left free keeps
   other load on a shared host off the benchmark's domains.  The traced
   run adds passes at 1 job and at [wide_jobs] for the scaling ratios. *)
let cores = Domain.recommended_domain_count ()
let jobs = max 1 (min 4 (cores - 1))
let wide_jobs = max 1 (min 4 cores)

(* ---------- small helpers ---------- *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile l p =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.

let get what = function Some x -> x | None -> failwith ("certbench: missing " ^ what)

(* Spans carry the pass they belong to: "main" (the timed repetitions),
   "one-job", "wide", or a query replay. *)
let tag = ref ""
let span name f = Span.run ~tag:!tag name f

(* ---------- the pipeline ---------- *)

type st = {
  g : Graph.t;
  jobs : int;
  seed : int;
  artifact : string;
  mutable bs : Spanner.t option;
  mutable ls : Spanner.t option;
  mutable us : Ultra_sparse.outcome option;
  mutable bd : Bs_distributed.outcome option;
  mutable cert : Certificate.t option;
  mutable vs : Verify.verdict option;
  mutable vc : Verify.verdict option;
  mutable oracle : Oracle.t option;
  mutable bytes : int;
  mutable rounds : (string * int) list;  (** simulated rounds per step *)
}

let fresh ~jobs ~seed ~artifact g =
  { g; jobs; seed; artifact; bs = None; ls = None; us = None; bd = None; cert = None;
    vs = None; vc = None; oracle = None; bytes = 0; rounds = [] }

let inject_drop = ref false

(* The negative control: drop one kept Bs_derand edge that has no
   (2k-1)-hop detour in the rest of the spanner. *)
let drop_edge g (sp : Spanner.t) =
  match Checks.edge_without_detour g ~k sp.Spanner.keep with
  | Some eid ->
      let keep = Array.copy sp.Spanner.keep in
      keep.(eid) <- false;
      Printf.printf "inject: dropped kept edge %d (no detour of <= %d hops)\n%!" eid ((2 * k) - 1);
      { sp with Spanner.keep }
  | None -> failwith "inject: every kept edge has a detour"

let steps : (string * (st -> unit)) list =
  let note st name r = st.rounds <- (name, r) :: List.remove_assoc name st.rounds in
  [
    ( "bs_derand",
      fun st ->
        let o = Bs_derand.run ~k st.g in
        note st "bs_derand" (Spanner.total_rounds o.Bs_derand.spanner);
        st.bs <- Some o.Bs_derand.spanner );
    ( "linear_size",
      fun st ->
        let o = Linear_size.run st.g in
        note st "linear_size" (Spanner.total_rounds o.Linear_size.spanner);
        st.ls <- Some o.Linear_size.spanner );
    ( "ultra_sparse",
      fun st ->
        let o = Ultra_sparse.run ~t:ultra_t st.g in
        note st "ultra_sparse" (Spanner.total_rounds o.Ultra_sparse.spanner);
        st.us <- Some o );
    ( "bs_distributed",
      fun st ->
        let o = Bs_distributed.run ~jobs:st.jobs ~seed:st.seed ~k st.g in
        note st "bs_distributed" o.Bs_distributed.network_stats.Network.rounds;
        st.bd <- Some o );
    ( "thurimella.certificate",
      fun st ->
        let c = Thurimella.certificate ~k st.g in
        note st "thurimella.certificate" (Rounds.total c.Certificate.rounds);
        st.cert <- Some c );
    ( "verify.certificate",
      fun st ->
        let v = Verify.certificate ~jobs:st.jobs ~mode:Verify.Local st.g (get "certificate" st.cert) in
        note st "verify.certificate" v.Verify.rounds;
        st.vc <- Some v );
    ( "verify.spanner",
      fun st ->
        let v = Verify.spanner ~jobs:st.jobs ~mode:Verify.Local ~k st.g (get "spanner" st.bs) in
        note st "verify.spanner" v.Verify.rounds;
        st.vs <- Some v );
    ("oracle.compile", fun st -> st.oracle <- Some (Oracle.compile st.g ~k (get "spanner" st.bs)));
    ("oracle.save", fun st -> st.bytes <- Oracle.save st.artifact (get "oracle" st.oracle));
  ]

let run_step st name =
  span name (fun () -> (List.assoc name steps) st);
  (* the negative control corrupts the spanner right after it is built *)
  if name = "bs_derand" && !inject_drop then st.bs <- Some (drop_edge st.g (get "spanner" st.bs))

let check_state st =
  let verdict name = function
    | Some v -> Checks.record name v.Verify.ok (Format.asprintf "%a" Verify.pp_verdict v)
    | None -> ()
  in
  verdict "verify.spanner" st.vs;
  verdict "verify.certificate" st.vc;
  Option.iter
    (fun sp -> Checks.record "linear_size.is_spanning" (Spanner.is_spanning st.g sp) "not spanning")
    st.ls;
  Option.iter
    (fun (o : Bs_distributed.outcome) ->
      Checks.record "bs_distributed.is_spanning" (Spanner.is_spanning st.g o.spanner) "not spanning")
    st.bd;
  Option.iter
    (fun (o : Ultra_sparse.outcome) ->
      Checks.record "ultra_sparse.is_spanning" (Spanner.is_spanning st.g o.spanner) "not spanning";
      let bound = Ultra_sparse.bound ~n:(Graph.n st.g) ~t:ultra_t in
      Checks.record "ultra_sparse.size" (Spanner.size o.spanner <= bound)
        (Printf.sprintf "%d edges > n + n/t = %d" (Spanner.size o.spanner) bound))
    st.us

let headline_edges w st =
  match w.headline with
  | `Bs_derand -> Spanner.size (get "spanner" st.bs)
  | `Ultra_sparse -> Spanner.size (get "ultra-sparse spanner" st.us).Ultra_sparse.spanner

let sim_rounds st = List.fold_left (fun acc (_, r) -> acc + r) 0 st.rounds

(* ---------- query batches ---------- *)

(* 60% distance queries from a per-batch pool of hot sources, 15% uniform
   distance queries, 25% membership queries — half of them on edges of G,
   so both answers occur. *)
let gen_batch rng g ~size ~hot =
  let n = Graph.n g and m = Graph.m g in
  let pool = Array.init hot (fun _ -> Rng.int rng n) in
  Array.init size (fun _ ->
      let r = Rng.int rng 100 in
      if r < 60 then Query_engine.Dist (pool.(Rng.int rng hot), Rng.int rng n)
      else if r < 75 then Query_engine.Dist (Rng.int rng n, Rng.int rng n)
      else if Rng.bool rng then
        let e = Graph.edge g (Rng.int rng m) in
        Query_engine.Mem (e.Graph.u, e.Graph.v)
      else Query_engine.Mem (Rng.int rng n, Rng.int rng n))

(* What the query windows of a run served, accumulated over the run. *)
type served = {
  rng : Rng.t;  (** batch generator *)
  check_rng : Rng.t;  (** picks the checked answers *)
  mutable batches : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable replay : Query_engine.query array list;  (** the first batches, for the jobs-scaling replay *)
}

let new_served ~seed =
  { rng = Rng.create (seed + 7_919); check_rng = Rng.create (seed + 104_729); batches = 0;
    hits = 0; misses = 0; evictions = 0; replay = [] }

let inject_perturb = ref false

(* One window: [window] batches, closed loop, one client — the next
   batch is sent when the previous one is answered.  Generation and
   checking happen between batches and are not timed.  Returns the raw
   and the reference-scaled seconds per batch; the batches of each chunk
   are scaled by the reference samples around the chunk. *)
let serve_window sv fam g keep oracle =
  let sub = Checks.kept_subgraph g keep in
  let batch () =
    let qs = gen_batch sv.rng g ~size:fam.batch ~hot:fam.hot in
    let (answers, stats), dt =
      time (fun () -> span "query_engine.run" (fun () -> Query_engine.run ~jobs oracle qs))
    in
    Checks.served ~rng:sv.check_rng ~samples:fam.samples ~perturb:(!inject_perturb && sv.batches = 0)
      g keep sub oracle qs answers;
    if sv.batches < 20 then sv.replay <- qs :: sv.replay;
    sv.batches <- sv.batches + 1;
    sv.hits <- sv.hits + stats.Query_engine.cache_hits;
    sv.misses <- sv.misses + stats.Query_engine.cache_misses;
    sv.evictions <- sv.evictions + stats.Query_engine.cache_evictions;
    dt
  in
  let chunks =
    List.init (window / chunk) (fun _ ->
        let before = Reference.sample () in
        let raw = List.init chunk (fun _ -> batch ()) in
        let after = Reference.sample () in
        (raw, List.map (fun dt -> Reference.scale dt ~before ~after) raw))
  in
  (List.concat_map fst chunks, List.concat_map snd chunks)

let load_checked st =
  let o = span "oracle.load" (fun () -> Oracle.load st.artifact) in
  Checks.record "oracle.roundtrip" (Oracle.equal o (get "oracle" st.oracle)) "loaded oracle differs";
  o

(* ---------- metrics ---------- *)

type metric = { mname : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let put mname unit_ value = metrics := { mname; value; unit_ } :: !metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* ---------- one run ---------- *)

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  traced : bool;
  fingerprints : string;
  out : string;
  commit : string;
}

let generate ~seed fam =
  Generators.connected_gnp ~rng:(Rng.create seed) ~n:fam.n ~avg_degree:fam.degree

let artifact_path o = Filename.concat o.out (Printf.sprintf "%s-seed%d.oracle" o.workload.wname o.seed)

(* One generation, timed as a set-up sample and fingerprint-checked
   against the table (for an unrecorded seed: against the run's first
   generation).  Returns the graph, its raw and its scaled seconds. *)
let generate_checked o fam tbl first =
  Gc.full_major ();
  let g, raw, scaled =
    Reference.measure (fun () -> span "generators.connected_gnp" (fun () -> generate ~seed:o.seed fam))
  in
  let fp = Checks.check_fingerprint tbl ~family:fam.fam ~seed:o.seed ~first:!first g in
  if !first = None then first := Some fp;
  (g, raw, scaled)

(* One repetition's samples, raw and reference-scaled seconds. *)
type rep = {
  setup : float * float;
  build : float * float;  (** the pipeline *)
  latencies : float list * float list;  (** per batch of the query window *)
  traced_rep : bool;
}

let sum = List.fold_left ( +. ) 0.

(* Each repetition generates the graph (a set-up sample), runs the
   pipeline on it (an artifact-build sample), loads the saved artifact
   back and serves one query window on it.  A reference sample is taken
   before and after every generation, pipeline step and chunk of
   batches.  Repetitions go on until [seconds] have been measured and at
   least [min_reps] made, so every kind of sample is spread over the
   whole run.  With [~alternate], every other repetition runs with spans
   off, to measure the tracing overhead. *)
let build_reps ?(alternate = false) o =
  let fam = o.workload.family in
  let tbl = Checks.load_fingerprints o.fingerprints and first = ref None in
  let sv = new_served ~seed:o.seed in
  let rec loop i total reps last =
    if total >= o.seconds && i >= (if alternate then 4 else min_reps) then
      (get "pipeline state" last, List.rev reps, sv)
    else begin
      let traced_rep = (not alternate) || i mod 2 = 1 in
      let saved = !Span.enabled in
      Span.enabled := saved && traced_rep;
      Reference.last := nan;
      let g, setup, setup_s = generate_checked o fam tbl first in
      Gc.full_major ();
      let st = fresh ~jobs ~seed:o.seed ~artifact:(artifact_path o) g in
      let steps =
        span "pipeline" (fun () ->
            List.map
              (fun name ->
                let (), raw, scaled = Reference.measure (fun () -> run_step st name) in
                (raw, scaled))
              o.workload.pipeline)
      in
      let build = (sum (List.map fst steps), sum (List.map snd steps)) in
      check_state st;
      Gc.full_major ();
      let oracle = load_checked st in
      let latencies =
        span "serve" (fun () -> serve_window sv fam g (get "spanner" st.bs).Spanner.keep oracle)
      in
      Span.enabled := saved;
      let r = { setup = (setup, setup_s); build; latencies; traced_rep } in
      loop (i + 1) (total +. setup +. fst build +. sum (fst latencies)) (r :: reps) (Some st)
    end
  in
  loop 0 0. [] None

(* A window's (p50, p90, queries/s) from its batch seconds. *)
let window_stats fam lat =
  (percentile lat 0.5, percentile lat 0.9, float_of_int (fam.batch * window) /. sum lat)

(* ---------- the traced run's extra passes and per-layer metrics ---------- *)

(* Construction and verification steps outside the workload's timed
   pipeline, run once so that every layer is measured on every workload. *)
let complement w =
  List.filter
    (fun name -> not (List.mem name w.pipeline))
    [ "bs_derand"; "linear_size"; "ultra_sparse"; "bs_distributed"; "thurimella.certificate";
      "verify.certificate"; "verify.spanner" ]

(* The layers that take [~jobs] and have a jobs-scaling ratio. *)
let scaled_layers = [ "bs_distributed"; "verify.spanner"; "verify.certificate" ]

let traced_metrics o st sv reps =
  let w = o.workload and fam = o.workload.family and g = st.g in
  (* every construction / verification layer outside the pipeline at the
     run's jobs; then everything again at 1 job, where allocation is read
     on the calling domain; then the scaled layers at [wide_jobs] *)
  let extra = fresh ~jobs ~seed:o.seed ~artifact:st.artifact g in
  extra.bs <- st.bs;
  span "coverage" (fun () -> List.iter (run_step extra) (complement w));
  check_state extra;
  tag := "one-job";
  let one = fresh ~jobs:1 ~seed:o.seed ~artifact:st.artifact g in
  span "pipeline" (fun () -> List.iter (run_step one) w.pipeline);
  span "coverage" (fun () -> List.iter (run_step one) (complement w));
  check_state one;
  let bs = get "spanner" one.bs in
  ignore (span "witness.spanner" (fun () -> Witness.spanner g ~k bs));
  tag := "wide";
  let wide = fresh ~jobs:wide_jobs ~seed:o.seed ~artifact:st.artifact g in
  wide.bs <- one.bs;
  wide.cert <- one.cert;
  List.iter (run_step wide) scaled_layers;
  check_state wide;
  (* the first query batches again, at 1 job and at [wide_jobs] *)
  let oracle = get "oracle" st.oracle in
  List.iter
    (fun qs ->
      List.iter
        (fun (jobs, t) ->
          tag := t;
          ignore (span "query_engine.run" (fun () -> Query_engine.run ~jobs oracle qs)))
        [ (1, "replay-one-job"); (wide_jobs, "replay-wide") ])
    sv.replay;
  (* the generator at n/4, for the scaling exponent *)
  tag := "main";
  let quarter = { fam with n = fam.n / 4 } in
  for _ = 1 to 3 do
    Gc.full_major ();
    ignore (span "generators.connected_gnp_quarter" (fun () -> generate ~seed:o.seed quarter))
  done;
  (* --- metrics --- *)
  let durs t name =
    List.filter_map (fun s -> if s.Span.tag = t then Some (Span.duration s) else None) (Span.with_name name)
  in
  (* span times are reference-scaled by the run's median reference sample *)
  let host = median !Reference.samples in
  let dur ?(t = "main") name = median (durs t name) *. Reference.nominal /. host in
  let alloc_mw name =
    match List.filter (fun s -> s.Span.tag = "one-job") (Span.with_name name) with
    | s :: _ -> s.Span.alloc_words /. 1e6
    | [] -> nan
  in
  let rounds name =
    float_of_int
      (match List.assoc_opt name st.rounds with Some r -> r | None -> List.assoc name extra.rounds)
  in
  let pick f = match f st with Some x -> x | None -> get "layer result" (f extra) in
  let bd = pick (fun s -> s.bd) and vs = pick (fun s -> s.vs) and vc = pick (fun s -> s.vc) in
  let scaling ?(one = "one-job") ?(wide = "wide") names =
    let sum t = List.fold_left (fun acc name -> acc +. dur ~t name) 0. names in
    sum one /. sum wide
  in
  put "host.reference_s" "s" host;
  let gen = dur "generators.connected_gnp" in
  put "generators.connected_gnp_s" "s" gen;
  put "generators.scaling_exp" "exponent"
    (log (gen /. dur "generators.connected_gnp_quarter") /. log (float_of_int fam.n /. float_of_int quarter.n));
  put "bs_derand.run_s" "s" (dur "bs_derand");
  put "bs_derand.alloc_mw" "Mword" (alloc_mw "bs_derand");
  put "bs_derand.rounds" "count" (rounds "bs_derand");
  put "linear_size.run_s" "s" (dur "linear_size");
  put "linear_size.rounds" "count" (rounds "linear_size");
  put "ultra_sparse.run_s" "s" (dur "ultra_sparse");
  put "ultra_sparse.alloc_mw" "Mword" (alloc_mw "ultra_sparse");
  put "ultra_sparse.rounds" "count" (rounds "ultra_sparse");
  let bd_s = dur "bs_distributed" in
  put "bs_distributed.run_s" "s" bd_s;
  put "bs_distributed.messages_per_s" "1/s"
    (float_of_int bd.Bs_distributed.network_stats.Network.messages /. bd_s);
  put "bs_distributed.jobs_scaling" "ratio" (scaling [ "bs_distributed" ]);
  put "witness.spanner_s" "s" (dur ~t:"one-job" "witness.spanner");
  put "witness.spanner_alloc_mw" "Mword" (alloc_mw "witness.spanner");
  put "verify.spanner_s" "s" (dur "verify.spanner");
  put "verify.spanner_rounds" "count" (float_of_int vs.Verify.rounds);
  put "verify.spanner_messages" "count" (float_of_int vs.Verify.messages);
  put "verify.certificate_s" "s" (dur "verify.certificate");
  put "verify.certificate_messages" "count" (float_of_int vc.Verify.messages);
  put "verify.jobs_scaling" "ratio" (scaling [ "verify.spanner"; "verify.certificate" ]);
  put "thurimella.certificate_s" "s" (dur "thurimella.certificate");
  put "oracle.compile_s" "s" (dur "oracle.compile");
  put "oracle.save_s" "s" (dur "oracle.save");
  put "oracle.bytes" "bytes" (float_of_int st.bytes);
  put "oracle.load_s" "s" (dur "oracle.load");
  put "query_engine.run_s" "s" (dur "query_engine.run");
  put "query_engine.tree_builds" "count" (float_of_int sv.misses /. float_of_int sv.batches);
  put "query_engine.hit_ratio" "ratio"
    (float_of_int sv.hits /. float_of_int (max 1 (sv.hits + sv.misses)));
  put "query_engine.evictions" "count" (float_of_int sv.evictions);
  put "query_engine.jobs_scaling" "ratio"
    (scaling ~one:"replay-one-job" ~wide:"replay-wide" [ "query_engine.run" ]);
  (* tracing overhead: traced against untraced repetitions *)
  let pipelines traced =
    median (List.filter_map (fun r -> if r.traced_rep = traced then Some (snd r.build) else None) reps)
  in
  let traced = pipelines true and untraced = pipelines false in
  put "trace.overhead_ratio" "ratio" ((traced -. untraced) /. untraced);
  Printf.printf "traced %.4f s vs untraced %.4f s per pipeline repetition (reference-scaled)\n"
    traced untraced;
  Printf.printf
    "wall-clock self time per layer (spans at jobs=%d: timed repetitions, coverage, n/4 generator):\n"
    jobs;
  List.iter
    (fun (name, self, count) -> Printf.printf "  %-36s %10.4f s  over %d span(s)\n" name self count)
    (Span.self_times (fun s -> s.Span.tag = "main"));
  let path = Filename.concat o.out (Printf.sprintf "%s-seed%d.spans.json" w.wname o.seed) in
  Span.write path;
  Printf.printf "spans written to %s\n" path

(* ---------- one run ---------- *)

let print_result ~correct =
  let body =
    String.concat ", "
      (List.rev_map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname (json_number m.value) m.unit_)
         !metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    !Checks.attempted !Checks.failed body

let stamp o =
  Printf.printf
    "stamp {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"seconds\": %g, \"nproc\": %d, \"jobs\": %d, \"ocaml\": %S, \"commit\": %S}\n%!"
    o.workload.wname o.seed (if o.traced then 1 else 0) o.seconds cores jobs Sys.ocaml_version o.commit

let run o =
  stamp o;
  let w = o.workload and fam = o.workload.family in
  tag := "main";
  Span.enabled := o.traced;
  let st, reps, sv = build_reps ~alternate:o.traced o in
  let medians f =
    (median (List.map (fun r -> fst (f r)) reps), median (List.map (fun r -> snd (f r)) reps))
  in
  let windows pick = List.map (fun r -> window_stats fam (pick r.latencies)) reps in
  if o.traced then traced_metrics o st sv reps
  else begin
    let ws = windows snd in
    put "setup_s" "s" (snd (medians (fun r -> r.setup)));
    put "time_to_artifact_s" "s" (snd (medians (fun r -> r.build)));
    put "queries_per_s" "1/s" (median (List.map (fun (_, _, qps) -> qps) ws));
    put "batch_p50_ms" "ms" (1000. *. median (List.map (fun (p50, _, _) -> p50) ws));
    put "batch_p90_ms" "ms" (1000. *. median (List.map (fun (_, p90, _) -> p90) ws));
    put "peak_rss_mb" "MB" (peak_rss_mb ());
    put "spanner_edges" "count" (float_of_int (headline_edges w st));
    put "sim_rounds" "count" (float_of_int (sim_rounds st));
    put "pass_rate" "ratio"
      (1. -. (float_of_int !Checks.failed /. float_of_int (max 1 !Checks.attempted)))
  end;
  (* the same medians unscaled, as the clock read them *)
  let raw_ws = windows fst in
  Printf.printf
    "wall clock: set-up %.4f s, artifact %.4f s, %.1f queries/s, batch p50 %.3f ms, p90 %.3f ms; \
     reference sample median %.4f s (nominal %.4f s)\n"
    (fst (medians (fun r -> r.setup))) (fst (medians (fun r -> r.build)))
    (median (List.map (fun (_, _, qps) -> qps) raw_ws))
    (1000. *. median (List.map (fun (p50, _, _) -> p50) raw_ws))
    (1000. *. median (List.map (fun (_, p90, _) -> p90) raw_ws))
    (median !Reference.samples) Reference.nominal;
  let samples name f =
    Printf.printf "%-24s %s\n" name (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" (f r)) reps))
  in
  samples "set-up s (scaled):" (fun r -> snd r.setup);
  samples "artifact s (scaled):" (fun r -> snd r.build);
  Printf.printf "simulated rounds: %s\n"
    (String.concat ", " (List.rev_map (fun (name, r) -> Printf.sprintf "%s %d" name r) st.rounds));
  Printf.printf "%d repetitions, %d batches, %d reference samples; error_rate %d/%d\n"
    (List.length reps) sv.batches (List.length !Reference.samples) !Checks.failed !Checks.attempted;
  let correct = !Checks.failed = 0 in
  print_result ~correct;
  if not correct then exit 1

(* ---------- command line ---------- *)

let record_fingerprints from upto =
  for seed = from to upto do
    List.iter
      (fun fam ->
        print_endline (Checks.fingerprint_line ~family:fam.fam ~seed (Checks.fingerprint (generate ~seed fam))))
      [ dense; sparse ]
  done

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let fingerprints = ref "certbench/fingerprints.tsv" and out = ref "certbench/_out" in
  let commit = ref "none" and inject = ref "" and record = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W dense-certify | sparse-build");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--fingerprints", Arg.Set_string fingerprints, "FILE recorded graph fingerprints");
      ("--out", Arg.Set_string out, "DIR where the oracle artifact and spans go");
      ("--commit", Arg.Set_string commit, "ID source revision for the stamp");
      ("--inject", Arg.Set_string inject, "drop-edge|perturb-answer negative control");
      ("--record-fingerprints", Arg.Tuple [ Arg.Int (fun a -> record := [ a ]); Arg.Int (fun b -> record := !record @ [ b ]) ],
       "FROM TO print the fingerprint table for seeds FROM..TO");
    ]
  in
  let usage = "certbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !record with
  | [ a; b ] -> record_fingerprints a b
  | _ -> (
      let die msg = prerr_endline ("certbench: " ^ msg); exit 2 in
      (match !inject with
      | "" -> ()
      | "drop-edge" -> inject_drop := true
      | "perturb-answer" -> inject_perturb := true
      | s -> die ("unknown --inject " ^ s));
      if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
      match List.find_opt (fun w -> w.wname = !workload) workloads with
      | None -> die (Printf.sprintf "unknown workload %S" !workload)
      | Some w ->
          if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
          run
            { workload = w; seed = !seed; seconds = !seconds; traced = !trace = 1;
              fingerprints = !fingerprints; out = !out; commit = !commit })
