open! Import

type cert_algo = Thurimella | Kecss

type config = {
  k : int;
  mode : [ `Incremental | `Rebuild ];
  cert : (cert_algo * int) option;
  headroom : int;
  max_affected : float;
  jobs : int;
  recert : [ `Exact | `Local | `Probe ];
}

let defaults ~k =
  if k < 1 then invalid_arg "Repair.defaults: k < 1";
  {
    k;
    mode = `Incremental;
    cert = None;
    headroom = k;
    max_affected = 0.25;
    jobs = Parallel.default_jobs ();
    recert = `Exact;
  }

type outcome = {
  batch : int;
  inserts : int;
  deletes : int;
  action : [ `Repair | `Rebuild ];
  dirty : int;
  candidates : int;
  added : int;
  removed : int;
  work : int;
  rebuild_work : int;
  cert_removed : int;
  cert_debt : int;
  cert_rebuilt : bool;
}

type verdicts = {
  stretch : float;
  stretch_ok : bool;
  spanning : bool;
  cert_ok : bool option;
  cert_violations : int option;
}

module Metrics = Ultraspan_util.Metrics

(* Every repair counter is a function of the update stream and the initial
   graph alone — the engine is sequential and deterministic — so all of
   them live in the deterministic namespace (jobs only parallelize the
   recertification kernels, which have their own [parallel.*] metrics). *)
type meters = {
  rm_batches : Metrics.counter;
  rm_dirty : Metrics.counter;
  rm_candidates : Metrics.counter;
  rm_filtered : Metrics.counter;  (* edges the candidate filter rejected *)
  rm_repairs : Metrics.counter;
  rm_rebuilds : Metrics.counter;
  rm_fallbacks : Metrics.counter;  (* repairs aborted by candidate overflow *)
  rm_work : Metrics.counter;
  rm_added : Metrics.counter;
  rm_removed : Metrics.counter;
  rm_cert_rebuilds : Metrics.counter;
  rm_debt : Metrics.gauge;
}

let meters_of reg =
  {
    rm_batches = Metrics.counter reg "dynamic.repair.batches_total";
    rm_dirty = Metrics.counter reg "dynamic.repair.dirty_balls_total";
    rm_candidates = Metrics.counter reg "dynamic.repair.candidates_total";
    rm_filtered = Metrics.counter reg "dynamic.repair.candidates_filtered";
    rm_repairs = Metrics.counter reg "dynamic.repair.repairs_total";
    rm_rebuilds = Metrics.counter reg "dynamic.repair.rebuilds_total";
    rm_fallbacks = Metrics.counter reg "dynamic.repair.rebuild_fallbacks";
    rm_work = Metrics.counter reg "dynamic.repair.work_total";
    rm_added = Metrics.counter reg "dynamic.repair.edges_added_total";
    rm_removed = Metrics.counter reg "dynamic.repair.edges_removed_total";
    rm_cert_rebuilds = Metrics.counter reg "dynamic.repair.cert_rebuilds_total";
    rm_debt = Metrics.gauge reg "dynamic.repair.recert_debt";
  }

type t = {
  cfg : config;
  n : int;
  mutable g : Graph.t;
  mutable keep : bool array;
  mutable edges : (int * int, int) Hashtbl.t;  (* live-edge model *)
  mutable span : (int * int, unit) Hashtbl.t;  (* spanner as canonical pairs *)
  mutable cert : (int * int, unit) Hashtbl.t;  (* certificate pairs *)
  mutable debt : int;  (* certificate edges lost since its last build *)
  mutable batches : int;
  rm : meters;  (* shared with copies *)
}

let validate (cfg : config) =
  if cfg.k < 1 then invalid_arg "Repair.create: k < 1";
  if cfg.headroom < 0 then invalid_arg "Repair.create: negative headroom";
  if cfg.max_affected < 0.0 then
    invalid_arg "Repair.create: negative max_affected";
  if cfg.jobs < 1 then invalid_arg "Repair.create: jobs < 1";
  match cfg.cert with
  | Some (_, ck) when ck < 1 -> invalid_arg "Repair.create: certificate k < 1"
  | _ -> ()

let pairs_of_keep g keep =
  let tbl = Hashtbl.create (2 * (Graph.m g + 1)) in
  Graph.iter_edges g (fun e ->
      if keep.(e.Graph.id) then Hashtbl.replace tbl (e.Graph.u, e.Graph.v) ());
  tbl

let keep_of_pairs g pairs =
  let keep = Array.make (Graph.m g) false in
  Graph.iter_edges g (fun e ->
      if Hashtbl.mem pairs (e.Graph.u, e.Graph.v) then keep.(e.Graph.id) <- true);
  keep

let build_spanner (cfg : config) g = (Bs_derand.run ~k:cfg.k g).Bs_derand.spanner.Spanner.keep

(* KECSS presumes a (ck + headroom)-connected input; a deletion stream can
   sink the graph below that, in which case we degrade to Thurimella's
   k-forest peeling, which certifies min(k, lambda) on any graph. *)
let build_cert (cfg : config) g =
  match cfg.cert with
  | None -> Hashtbl.create 1
  | Some (algo, ck) ->
      let kk = ck + cfg.headroom in
      let keep =
        match algo with
        | Thurimella -> (Thurimella.certificate ~k:kk g).Certificate.keep
        | Kecss -> (
            try (Kecss.approximate ~k:kk g).Kecss.certificate.Certificate.keep
            with Invalid_argument _ ->
              (Thurimella.certificate ~k:kk g).Certificate.keep)
      in
      pairs_of_keep g keep

let create ?(metrics = Metrics.disabled) cfg g =
  validate cfg;
  let edges = Hashtbl.create (2 * (Graph.m g + 1)) in
  Graph.iter_edges g (fun e ->
      Hashtbl.replace edges (e.Graph.u, e.Graph.v) e.Graph.w);
  let keep = build_spanner cfg g in
  {
    cfg;
    n = Graph.n g;
    g;
    keep;
    edges;
    span = pairs_of_keep g keep;
    cert = build_cert cfg g;
    debt = 0;
    batches = 0;
    rm = meters_of metrics;
  }

let config t = t.cfg
let graph t = t.g
let spanner t = t.keep
let spanner_size t = Hashtbl.length t.span
let certificate_size t = Hashtbl.length t.cert
let cert_debt t = t.debt

let certificate t =
  match t.cfg.cert with
  | None -> None
  | Some (_, ck) ->
      let eids = ref [] in
      Graph.iter_edges t.g (fun e ->
          if Hashtbl.mem t.cert (e.Graph.u, e.Graph.v) then
            eids := e.Graph.id :: !eids);
      Some (Certificate.of_eids t.g ~k:ck (List.rev !eids))

let copy t =
  {
    t with
    edges = Hashtbl.copy t.edges;
    span = Hashtbl.copy t.span;
    cert = Hashtbl.copy t.cert;
    keep = Array.copy t.keep;
  }

(* Budget-truncated single/multi-purpose Dijkstra over the masked subgraph,
   counting every scanned kept edge into [work].  [stop_at = -1] disables
   the early exit.  Also returns the reached vertices (finite distance),
   so callers can mark dirty balls without rescanning all [n] entries. *)
let dijkstra_trunc ~work g keep ~src ~budget ~stop_at =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let settled = Bitset.create n in
  let pq = Pqueue.create ~cmp:compare () in
  dist.(src) <- 0;
  let reached = ref [ src ] in
  Pqueue.push pq 0 src;
  let finished = ref false in
  while (not !finished) && not (Pqueue.is_empty pq) do
    let d, v = Pqueue.pop_exn pq in
    if not (Bitset.mem settled v) then begin
      Bitset.add settled v;
      if v = stop_at then finished := true
      else
        Graph.iter_adj g v (fun u eid ->
            if keep.(eid) then begin
              incr work;
              let nd = d + Graph.weight g eid in
              if nd <= budget && nd < dist.(u) then begin
                if dist.(u) = max_int then reached := u :: !reached;
                dist.(u) <- nd;
                Pqueue.push pq nd u
              end
            end)
    end
  done;
  (dist, !reached)

let rebuild_work_proxy (cfg : config) g = ((cfg.k + 1) * Graph.m g) + Graph.n g

let apply_batch t batch =
  let cfg = t.cfg in
  let n = t.n in
  (* Stage the ops against copies so a malformed batch leaves the engine
     unchanged; t.span / t.cert are only consulted, never written, until
     the commit below. *)
  let edges' = Hashtbl.copy t.edges in
  let ins = Hashtbl.create 16 in (* inserted pairs still present at the end *)
  let rem_span = Hashtbl.create 16 in (* deleted spanner pairs, with weight *)
  let rem_cert = Hashtbl.create 16 in
  let inserts = ref 0 and deletes = ref 0 in
  List.iter
    (fun op ->
      (match op with
      | Update_stream.Insert _ -> incr inserts
      | Update_stream.Delete _ -> incr deletes);
      (match op with
      | Update_stream.Insert { u; v; _ } | Update_stream.Delete { u; v } ->
          if v >= n then
            failwith
              (Printf.sprintf "Repair: op endpoint %d-%d outside [0, %d)" u v n));
      match op with
      | Update_stream.Insert { u; v; w } ->
          if Hashtbl.mem edges' (u, v) then
            failwith
              (Printf.sprintf "Repair: insert of existing edge %d-%d" u v);
          Hashtbl.replace edges' (u, v) w;
          Hashtbl.replace ins (u, v) w
      | Update_stream.Delete { u; v } -> (
          match Hashtbl.find_opt edges' (u, v) with
          | None ->
              failwith
                (Printf.sprintf "Repair: delete of absent edge %d-%d" u v)
          | Some w ->
              Hashtbl.remove edges' (u, v);
              Hashtbl.remove ins (u, v);
              if Hashtbl.mem t.span (u, v) && not (Hashtbl.mem rem_span (u, v))
              then Hashtbl.replace rem_span (u, v) w;
              if Hashtbl.mem t.cert (u, v) && not (Hashtbl.mem rem_cert (u, v))
              then Hashtbl.replace rem_cert (u, v) ()))
    batch;
  (* the batch is valid: rebuild the graph (ids renumber, n is fixed) *)
  let triples = Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) edges' [] in
  let g' = Graph.of_edges ~n triples in
  let m' = Graph.m g' in
  let old_span_size = Hashtbl.length t.span in
  let removed_list =
    List.sort compare
      (Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) rem_span [])
  in
  let removed = List.length removed_list in
  let inserted_list =
    List.sort compare (Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) ins [])
  in
  let rebuild_work = rebuild_work_proxy cfg g' in
  let k2 = (2 * cfg.k) - 1 in
  let work = ref 0 in
  (* ---------- spanner maintenance ---------- *)
  let span' = Hashtbl.copy t.span in
  List.iter (fun (u, v, _) -> Hashtbl.remove span' (u, v)) removed_list;
  let do_rebuild () =
    let keep' = build_spanner cfg g' in
    (keep', pairs_of_keep g' keep', rebuild_work, 0, 0, 0)
  in
  let do_repair () =
    (* one truncated Dijkstra in the *old* spanner per dirty vertex: any
       edge whose bound-length witness crossed a deleted spanner edge has
       both endpoints inside these balls (see repair.mli) *)
    let maxw =
      Array.fold_left (fun acc e -> max acc e.Graph.w) 1 (Graph.edges g')
    in
    let budget = k2 * maxw in
    let dirty = Hashtbl.create 16 in
    List.iter
      (fun (u, v, _) ->
        if not (Hashtbl.mem dirty u) then
          Hashtbl.replace dirty u
            (dijkstra_trunc ~work t.g t.keep ~src:u ~budget ~stop_at:(-1));
        if not (Hashtbl.mem dirty v) then
          Hashtbl.replace dirty v
            (dijkstra_trunc ~work t.g t.keep ~src:v ~budget ~stop_at:(-1)))
      removed_list;
    let n_dirty = Hashtbl.length dirty in
    (* candidate filter: an edge of g' is suspect if some deleted spanner
       edge closes a bound-length detour between its endpoints.  Every
       distance outside the dirty balls is infinite, so the |D|-way detour
       checks only run on edges with BOTH endpoints inside some ball — one
       cheap membership pass over the edge list plus O(|D| * ball) checks
       near the damage, instead of m' * |D| everywhere. *)
    let suspects = ref [] in
    if removed > 0 then begin
      let in_ball = Bitset.create n in
      Hashtbl.iter
        (fun _ (_, reached) ->
          List.iter
            (fun v ->
              incr work;
              Bitset.add in_ball v)
            reached)
        dirty;
      work := !work + m';
      Graph.iter_edges g' (fun e ->
          let x = e.Graph.u and y = e.Graph.v and w = e.Graph.w in
          if
            Bitset.mem in_ball x && Bitset.mem in_ball y
            && (not (Hashtbl.mem span' (x, y)))
            && not (Hashtbl.mem ins (x, y))
          then
            let bound = k2 * w in
            let hit =
              List.exists
                (fun (a, b, w_ab) ->
                  incr work;
                  let da, _ = Hashtbl.find dirty a
                  and db, _ = Hashtbl.find dirty b in
                  let via ds dt =
                    ds.(x) < max_int && dt.(y) < max_int
                    && ds.(x) + w_ab + dt.(y) <= bound
                  in
                  via da db || via db da)
                removed_list
            in
            if hit then suspects := (w, x, y) :: !suspects)
    end;
    if removed > 0 then
      Metrics.add t.rm.rm_filtered (m' - List.length !suspects);
    let candidates =
      List.sort compare
        (List.rev_append
           (List.map (fun (u, v, w) -> (w, u, v)) inserted_list)
           !suspects)
    in
    let n_cand = List.length candidates in
    if float_of_int n_cand > cfg.max_affected *. float_of_int (max 1 m') then begin
      let keep', span'', w, _, _, _ = do_rebuild () in
      (keep', span'', !work + w, n_dirty, n_cand, -1)
    end
    else begin
      (* greedy re-check against the *current* spanner, lightest first *)
      let keep' = keep_of_pairs g' span' in
      let added = ref 0 in
      List.iter
        (fun (w, u, v) ->
          if not (Hashtbl.mem span' (u, v)) then begin
            let bound = k2 * w in
            let dist, _ =
              dijkstra_trunc ~work g' keep' ~src:u ~budget:bound ~stop_at:v
            in
            if dist.(v) > bound then begin
              Hashtbl.replace span' (u, v) ();
              (match Graph.find_edge g' u v with
              | Some eid -> keep'.(eid) <- true
              | None -> assert false);
              incr added
            end
          end)
        candidates;
      (keep', span', !work, n_dirty, n_cand, !added)
    end
  in
  let force_rebuild =
    cfg.mode = `Rebuild
    || float_of_int removed
       > cfg.max_affected *. float_of_int (max 1 old_span_size)
  in
  let keep', span', total_work, n_dirty, n_cand, added =
    if force_rebuild then do_rebuild () else do_repair ()
  in
  let action = if added < 0 || force_rebuild then `Rebuild else `Repair in
  let overflowed = added < 0 && not force_rebuild in
  let added = max added 0 in
  (* ---------- lazy recertification ---------- *)
  let cert_removed = Hashtbl.length rem_cert in
  let cert_rebuilt = ref false in
  let cert' =
    if t.cfg.cert = None then t.cert
    else begin
      let c = Hashtbl.copy t.cert in
      Hashtbl.iter (fun key () -> if not (Hashtbl.mem ins key) then Hashtbl.remove c key) rem_cert;
      List.iter (fun (u, v, _) -> Hashtbl.replace c (u, v) ()) inserted_list;
      c
    end
  in
  let debt' =
    t.debt
    + Hashtbl.fold
        (fun key () acc -> if Hashtbl.mem ins key then acc else acc + 1)
        rem_cert 0
  in
  let cert', debt' =
    if t.cfg.cert <> None && debt' > cfg.headroom then begin
      cert_rebuilt := true;
      (build_cert cfg g', 0)
    end
    else (cert', debt')
  in
  (* ---------- commit ---------- *)
  t.edges <- edges';
  t.g <- g';
  t.keep <- keep';
  t.span <- span';
  t.cert <- cert';
  t.debt <- debt';
  t.batches <- t.batches + 1;
  let rm = t.rm in
  Metrics.incr rm.rm_batches;
  Metrics.add rm.rm_dirty n_dirty;
  Metrics.add rm.rm_candidates n_cand;
  (match action with
  | `Repair -> Metrics.incr rm.rm_repairs
  | `Rebuild -> Metrics.incr rm.rm_rebuilds);
  if overflowed then Metrics.incr rm.rm_fallbacks;
  Metrics.add rm.rm_work total_work;
  Metrics.add rm.rm_added added;
  Metrics.add rm.rm_removed removed;
  if !cert_rebuilt then Metrics.incr rm.rm_cert_rebuilds;
  Metrics.set rm.rm_debt debt';
  {
    batch = t.batches;
    inserts = !inserts;
    deletes = !deletes;
    action;
    dirty = n_dirty;
    candidates = n_cand;
    added;
    removed;
    work = total_work;
    rebuild_work;
    cert_removed;
    cert_debt = debt';
    cert_rebuilt = !cert_rebuilt;
  }

let apply_stream t stream =
  List.map (apply_batch t) stream.Update_stream.batches

let spanner_of_keep g keep =
  let eids = ref [] in
  Array.iteri (fun e b -> if b then eids := e :: !eids) keep;
  Spanner.of_eids g !eids

(* Local recertification: witness + O(k)-round CONGEST checkers instead of
   the O(nm) ground truth.  An accepting run certifies the stretch bound
   (2k-1) without measuring the exact stretch, so [stretch] reports the
   certified bound on accept and [infinity] on reject. *)
let recertify_local t =
  let alpha = float_of_int ((2 * t.cfg.k) - 1) in
  let sp = spanner_of_keep t.g t.keep in
  let v = Verify.spanner ~jobs:t.cfg.jobs ~mode:Verify.Local ~k:t.cfg.k t.g sp in
  let sp_ok = v.Verify.ok in
  let cert_ok =
    match certificate t with
    | None -> None
    | Some c ->
        Some (Verify.certificate ~jobs:t.cfg.jobs ~mode:Verify.Local t.g c)
          .Verify.ok
  in
  {
    stretch = (if sp_ok then alpha else infinity);
    stretch_ok = sp_ok;
    spanning = sp_ok;
    cert_ok;
    cert_violations = None;
  }

(* Probe recertification: sublinear eps-far connectivity spot-checks only.
   Stretch is out of a probe's reach, so the stretch fields are vacuous
   ([stretch = 0.], [stretch_ok = true]); an accept certifies nothing more
   than "not eps-far from connected". *)
let recertify_probe t =
  let seed = t.batches + 1 in
  let probe keep =
    (Eps_far.connectivity ~keep ~seed ~epsilon:0.1 t.g).Eps_far.accepted
  in
  let spanning = probe t.keep in
  let cert_ok =
    match certificate t with
    | None -> None
    | Some c -> Some (probe c.Certificate.keep)
  in
  {
    stretch = 0.;
    stretch_ok = true;
    spanning;
    cert_ok;
    cert_violations = None;
  }

let recertify ?rng ?(budget = 200) t =
  match t.cfg.recert with
  | `Local -> recertify_local t
  | `Probe -> recertify_probe t
  | `Exact -> (
      let jobs = t.cfg.jobs in
      let alpha = float_of_int ((2 * t.cfg.k) - 1) in
      let stretch = Stretch.max_edge_stretch ~jobs t.g t.keep in
      let stretch_ok = Stretch.check_stretch ~jobs t.g t.keep alpha in
      let spanning = Connectivity.spans t.g t.keep in
      match certificate t with
      | None ->
          {
            stretch;
            stretch_ok;
            spanning;
            cert_ok = None;
            cert_violations = None;
          }
      | Some c ->
          let cert_ok = Certificate.is_certificate t.g c in
          let r = Resilience.check_certificate ?rng ~budget t.g c in
          {
            stretch;
            stretch_ok;
            spanning;
            cert_ok = Some cert_ok;
            cert_violations = Some r.Resilience.violations;
          })

let pp_outcome ppf o =
  Format.fprintf ppf
    "batch %d: +%d/-%d %s dirty=%d cand=%d added=%d removed=%d work=%d \
     (rebuild %d) cert(-%d debt=%d%s)"
    o.batch o.inserts o.deletes
    (match o.action with `Repair -> "repair" | `Rebuild -> "rebuild")
    o.dirty o.candidates o.added o.removed o.work o.rebuild_work o.cert_removed
    o.cert_debt
    (if o.cert_rebuilt then " rebuilt" else "")

let pp_verdicts ppf v =
  Format.fprintf ppf "stretch %.3f (%s) spanning=%b%s" v.stretch
    (if v.stretch_ok then "ok" else "VIOLATED")
    v.spanning
    (match (v.cert_ok, v.cert_violations) with
    | Some ok, Some viol ->
        Format.asprintf " cert(%s, %d violations)"
          (if ok then "ok" else "BROKEN")
          viol
    | Some ok, None ->
        (* local / probe recertification: no failure-set sampling *)
        Format.asprintf " cert(%s)" (if ok then "ok" else "BROKEN")
    | _ -> "")
