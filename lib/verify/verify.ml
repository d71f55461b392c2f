open! Import

type mode = Local | Exact | Probe

let mode_of_string = function
  | "local" -> Ok Local
  | "exact" -> Ok Exact
  | "probe" -> Ok Probe
  | s ->
      Error
        (Printf.sprintf "unknown verify mode %S (expected local, exact or probe)"
           s)

let mode_name = function Local -> "local" | Exact -> "exact" | Probe -> "probe"

type verdict = {
  target : string;
  mode : mode;
  ok : bool;
  rejects : int;
  rounds : int;
  messages : int;
  max_words : int;
  queries : int;
  note : string;
}

let pp_verdict ppf v =
  Format.fprintf ppf
    "%s %s: %s rejects=%d rounds=%d msgs=%d words=%d queries=%d%s" v.target
    (mode_name v.mode)
    (if v.ok then "accept" else "reject")
    v.rejects v.rounds v.messages v.max_words v.queries
    (if v.note = "" then "" else " [" ^ v.note ^ "]")

let count_rejects accept =
  Array.fold_left (fun a b -> if b then a else a + 1) 0 accept

let base target mode =
  {
    target;
    mode;
    ok = false;
    rejects = 0;
    rounds = 0;
    messages = 0;
    max_words = 0;
    queries = 0;
    note = "";
  }

let of_checker target (cv : Checkers.verdict) note =
  {
    (base target Local) with
    ok = Checkers.all_accept cv;
    rejects = count_rejects cv.Checkers.accept;
    rounds = cv.Checkers.stats.Network.rounds;
    messages = cv.Checkers.stats.Network.messages;
    max_words = cv.Checkers.stats.Network.max_words;
    note;
  }

let of_probe target (r : Eps_far.report) =
  let note =
    match r.Eps_far.witness with
    | Some (v, size) ->
        Printf.sprintf "disconnected: component of %d vertex(es) around %d"
          size v
    | None -> ""
  in
  {
    (base target Probe) with
    ok = r.Eps_far.accepted;
    queries = r.Eps_far.vertex_queries + r.Eps_far.edge_queries;
    note;
  }

let spanner ?engine ?jobs ?(seed = 1) ?(epsilon = 0.1) ~mode ~k g sp =
  match mode with
  | Local ->
      let w = Witness.spanner g ~k sp in
      let cv =
        Checkers.spanner ?engine ?jobs g ~keep:sp.Spanner.keep ~k
          ~detour:w.Witness.detour
      in
      let note =
        if w.Witness.missing > 0 then
          Printf.sprintf "%d detour witness(es) missing" w.Witness.missing
        else ""
      in
      of_checker "spanner" cv note
  | Exact -> (
      match Spanner.validate g sp ~alpha:(float_of_int ((2 * k) - 1)) with
      | Ok () -> { (base "spanner" Exact) with ok = true }
      | Error e -> { (base "spanner" Exact) with note = e })
  | Probe ->
      of_probe "spanner"
        (Eps_far.connectivity ~keep:sp.Spanner.keep ~seed ~epsilon g)

let exact_certificate g cert note =
  let ok = Certificate.is_certificate g cert in
  {
    (base "certificate" Exact) with
    ok;
    note =
      (if ok then note
       else if note = "" then "connectivity not preserved up to k"
       else note ^ "; connectivity not preserved up to k");
  }

let certificate ?engine ?jobs ?(seed = 1) ?(epsilon = 0.1) ~mode g
    cert =
  match mode with
  | Local -> (
      match Witness.certificate g cert with
      | Ok w ->
          let cv =
            Checkers.forests ?engine ?jobs g
              ~keep:cert.Certificate.keep ~k:w.Witness.ck
              ~forest:w.Witness.forest ~parent:w.Witness.parent
              ~depth:w.Witness.depth ~root:w.Witness.root
          in
          of_checker "certificate" cv ""
      | Error e ->
          { (exact_certificate g cert ("local fallback: " ^ e)) with
            mode = Local })
  | Exact -> exact_certificate g cert ""
  | Probe ->
      of_probe "certificate"
        (Eps_far.connectivity ~keep:cert.Certificate.keep ~seed ~epsilon g)

(* ---------- the corruption-detection matrix ---------- *)

let copy_spanner_witness (w : Witness.spanner_witness) =
  { w with Witness.detour = Array.map Array.copy w.Witness.detour }

let copy_certificate_witness (w : Witness.certificate_witness) =
  {
    w with
    Witness.forest = Array.copy w.Witness.forest;
    parent = Array.map Array.copy w.Witness.parent;
    depth = Array.map Array.copy w.Witness.depth;
    root = Array.map Array.copy w.Witness.root;
  }

let spanner_kinds =
  [
    ("drop-spanner-edge", `Drop_spanner_edge);
    ("truncate-detour", `Truncate_detour);
    ("reroute-nonadjacent", `Reroute_nonadjacent);
    ("erase-detour", `Erase_detour);
  ]

let certificate_kinds =
  [
    ("drop-forest-arc", `Drop_forest_arc);
    ("flip-forest-label", `Flip_forest_label);
    ("corrupt-depth", `Corrupt_depth);
    ("corrupt-root", `Corrupt_root);
  ]

(* Apply one seeded corruption in place; [false] = no applicable site. *)
let corrupt_spanner g rng kind keep (w : Witness.spanner_witness) =
  let cands = ref [] in
  Array.iteri
    (fun e p -> if Array.length p > 0 then cands := e :: !cands)
    w.Witness.detour;
  let cands = Array.of_list (List.rev !cands) in
  if Array.length cands = 0 then false
  else
    let pick () = cands.(Rng.int rng (Array.length cands)) in
    match kind with
    | `Drop_spanner_edge -> (
        let p = w.Witness.detour.(pick ()) in
        match Graph.find_edge g p.(0) p.(1) with
        | Some e1 ->
            keep.(e1) <- false;
            true
        | None -> false)
    | `Truncate_detour ->
        let e = pick () in
        let p = w.Witness.detour.(e) in
        w.Witness.detour.(e) <- Array.sub p 0 (Array.length p - 1);
        true
    | `Reroute_nonadjacent -> (
        let e = pick () in
        let p = w.Witness.detour.(e) in
        let pos = if Array.length p >= 4 then 2 else 1 in
        let anchor = p.(pos - 1) in
        (* a vertex the token cannot legally step to from [anchor]: not
           adjacent in the spanner (edge absent, or present but dropped) *)
        let z = ref (-1) in
        for v = Graph.n g - 1 downto 0 do
          if v <> anchor && v <> p.(pos) then
            match Graph.find_edge g anchor v with
            | None -> z := v
            | Some e' -> if not keep.(e') then z := v
        done;
        match !z with
        | -1 -> false
        | z ->
            p.(pos) <- z;
            true)
    | `Erase_detour ->
        w.Witness.detour.(pick ()) <- [||];
        true

let corrupt_certificate rng kind keep (w : Witness.certificate_witness) =
  let k = w.Witness.ck in
  let labeled = ref [] in
  Array.iteri
    (fun e j -> if j >= 1 then labeled := e :: !labeled)
    w.Witness.forest;
  let labeled = Array.of_list (List.rev !labeled) in
  let parented = ref [] in
  for i = k - 1 downto 0 do
    Array.iteri
      (fun v p -> if p >= 0 then parented := (i, v) :: !parented)
      w.Witness.parent.(i)
  done;
  let parented = Array.of_list !parented in
  let pick_edge () = labeled.(Rng.int rng (Array.length labeled)) in
  let pick_node () = parented.(Rng.int rng (Array.length parented)) in
  match kind with
  | `Drop_forest_arc ->
      if Array.length labeled = 0 then false
      else begin
        let e = pick_edge () in
        w.Witness.forest.(e) <- 0;
        keep.(e) <- false;
        true
      end
  | `Flip_forest_label ->
      if k < 2 || Array.length labeled = 0 then false
      else begin
        let e = pick_edge () in
        w.Witness.forest.(e) <- (w.Witness.forest.(e) mod k) + 1;
        true
      end
  | `Corrupt_depth ->
      if Array.length parented = 0 then false
      else begin
        let i, v = pick_node () in
        w.Witness.depth.(i).(v) <- w.Witness.depth.(i).(v) + 1;
        true
      end
  | `Corrupt_root ->
      if Array.length parented = 0 then false
      else begin
        let i, v = pick_node () in
        w.Witness.root.(i).(v) <- v;
        true
      end

let matrix ?engine ?jobs ~seed ~quick ppf =
  let pr fmt = Format.fprintf ppf fmt in
  let all_ok = ref true in
  let emit name expect (got : bool) extra =
    if got <> expect then all_ok := false;
    pr "%-52s verdict=%-6s expect=%-6s %s%s@." name
      (if got then "accept" else "reject")
      (if expect then "accept" else "reject")
      extra
      (if got = expect then "" else " MISMATCH")
  in
  let checker_extra (cv : Checkers.verdict) =
    Printf.sprintf "rejects=%d rounds=%d msgs=%d words=%d"
      (count_rejects cv.Checkers.accept)
      cv.Checkers.stats.Network.rounds cv.Checkers.stats.Network.messages
      cv.Checkers.stats.Network.max_words
  in
  pr "verify-matrix/1 seed=%d quick=%b@." seed quick;
  (* Both families are dense enough that [Bs_derand] discards edges, so
     the spanner corruptions always have detour witnesses to attack. *)
  let n_gnp = if quick then 128 else 384 in
  let n_cl = if quick then 24 else 40 in
  let specs =
    [
      ( "gnp",
        Generators.connected_gnp
          ~rng:(Rng.create (seed * 7))
          ~n:n_gnp ~avg_degree:32.,
        3,
        `Thurimella );
      ("complete", Generators.complete n_cl, 2, `Ni);
    ]
  in
  List.iter
    (fun (gname, g, k, cert_kind) ->
      let rng = Rng.create (seed + (17 * k)) in
      (* -- spanner cases -- *)
      let sp = (Bs_derand.run ~k g).Bs_derand.spanner in
      let w = Witness.spanner g ~k sp in
      let run_sp keep detour =
        Checkers.spanner ?engine ?jobs g ~keep ~k ~detour
      in
      let cv = run_sp sp.Spanner.keep w.Witness.detour in
      emit
        (Printf.sprintf "spanner %s n=%d k=%d valid" gname (Graph.n g) k)
        true
        (Checkers.all_accept cv && w.Witness.missing = 0)
        (checker_extra cv);
      List.iter
        (fun (kname, kind) ->
          let keep = Array.copy sp.Spanner.keep in
          let wc = copy_spanner_witness w in
          if corrupt_spanner g rng kind keep wc then begin
            let cv = run_sp keep wc.Witness.detour in
            emit
              (Printf.sprintf "spanner %s corrupt=%s" gname kname)
              false (Checkers.all_accept cv) (checker_extra cv)
          end
          else
            emit
              (Printf.sprintf "spanner %s corrupt=%s" gname kname)
              false true "no applicable corruption site")
        spanner_kinds;
      (* -- certificate cases -- *)
      let cert =
        match cert_kind with
        | `Thurimella -> Thurimella.certificate ~k g
        | `Ni -> Nagamochi_ibaraki.certificate ~k g
      in
      (match Witness.certificate g cert with
      | Error e ->
          all_ok := false;
          pr "certificate %s witness build FAILED: %s@." gname e
      | Ok cw ->
          let run_cert keep (wc : Witness.certificate_witness) =
            Checkers.forests ?engine ?jobs g ~keep ~k
              ~forest:wc.Witness.forest ~parent:wc.Witness.parent
              ~depth:wc.Witness.depth ~root:wc.Witness.root
          in
          let cv = run_cert cert.Certificate.keep cw in
          emit
            (Printf.sprintf "certificate %s n=%d k=%d valid" gname (Graph.n g)
               k)
            true (Checkers.all_accept cv) (checker_extra cv);
          List.iter
            (fun (kname, kind) ->
              let keep = Array.copy cert.Certificate.keep in
              let wc = copy_certificate_witness cw in
              if corrupt_certificate rng kind keep wc then begin
                let cv = run_cert keep wc in
                emit
                  (Printf.sprintf "certificate %s corrupt=%s" gname kname)
                  false (Checkers.all_accept cv) (checker_extra cv)
              end
              else
                emit
                  (Printf.sprintf "certificate %s corrupt=%s" gname kname)
                  false true "no applicable corruption site")
            certificate_kinds);
      (* -- probe cases -- *)
      let pv =
        Eps_far.connectivity ~keep:sp.Spanner.keep ~seed ~epsilon:0.1 g
      in
      emit
        (Printf.sprintf "probe %s spanner connected" gname)
        true pv.Eps_far.accepted
        (Printf.sprintf "samples=%d cap=%d queries=%d" pv.Eps_far.samples
           pv.Eps_far.cap
           (pv.Eps_far.vertex_queries + pv.Eps_far.edge_queries)))
    specs;
  (* far-from-connected negative control: every component is tiny, so any
     sampled start exhausts its component below the cap *)
  let nm = if quick then 64 else 256 in
  let matching =
    Graph.of_edges ~n:nm
      (List.init (nm / 2) (fun i -> ((2 * i), (2 * i) + 1, 1)))
  in
  let pv = Eps_far.connectivity ~seed ~epsilon:0.1 matching in
  emit
    (Printf.sprintf "probe matching n=%d far" nm)
    false pv.Eps_far.accepted
    (Printf.sprintf "samples=%d cap=%d queries=%d" pv.Eps_far.samples
       pv.Eps_far.cap
       (pv.Eps_far.vertex_queries + pv.Eps_far.edge_queries));
  pr "verify-matrix: %s@." (if !all_ok then "OK" else "FAILED");
  !all_ok
