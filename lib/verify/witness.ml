open! Import

type spanner_witness = { k : int; detour : int array array; missing : int }

(* Hop-bounded, budget-pruned shortest paths inside the spanner subgraph,
   one layered search per canonical endpoint [u] of a non-spanner edge.
   [dist.(h*n + v)] is the weight of the explored [h]-hop path to [v]
   that was recorded at layer [h], [par] its predecessor at layer [h-1].
   A relaxation is recorded only when it strictly beats [best.(v)], the
   least weight recorded at any layer so far, so a vertex's recorded
   weights strictly decrease with the layer: [best_layer.(v)] (the last
   recording) is the fewest-hop argmin, and backtracking from it walks a
   path with exactly that many hops.  Layer [h] relaxes the arcs of the
   vertices recorded at layer [h-1], walked in reverse recording order;
   that order fixes the tie-breaking and so the output bytes.

   All scratch is flat and sized once: the kept arcs in their own CSR
   (the dropped arcs are never walked), two frontier arrays that swap
   after each layer, and two stacks listing the [dist] entries and the
   vertices to reset between sources.  Nothing is allocated per
   relaxation; only the detour paths themselves are. *)
let spanner g ~k sp =
  if k < 1 then invalid_arg "Witness.spanner: k >= 1";
  let n = Graph.n g and m = Graph.m g in
  let keep = sp.Spanner.keep in
  if Array.length keep <> m then
    invalid_arg "Witness.spanner: keep length mismatch";
  let hmax = (2 * k) - 1 in
  let inf = max_int in
  let { Graph.off; dst; eid; _ } = Graph.csr g in
  let koff = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let c = ref koff.(v) in
    for a = off.(v) to off.(v + 1) - 1 do
      if keep.(eid.(a)) then incr c
    done;
    koff.(v + 1) <- !c
  done;
  let kdst = Array.make koff.(n) 0 and kw = Array.make koff.(n) 0 in
  let w_min = ref inf in
  let p = ref 0 in
  for a = 0 to off.(n) - 1 do
    let e = eid.(a) in
    if keep.(e) then begin
      let w = Graph.weight g e in
      kdst.(!p) <- dst.(a);
      kw.(!p) <- w;
      if w < !w_min then w_min := w;
      incr p
    end
  done;
  let w_min = !w_min in
  let layers = hmax + 1 in
  let dist = Array.make (layers * n) inf in
  let par = Array.make (layers * n) (-1) in
  let best = Array.make n inf and best_layer = Array.make n 0 in
  let frontier = ref (Array.make n 0) and next = ref (Array.make n 0) in
  let dirty = Array.make (layers * n) 0 and ndirty = ref 0 in
  let seen = Array.make n 0 and nseen = ref 0 in
  let deg = max 1 (Graph.max_degree g) in
  let tv = Array.make deg 0 and te = Array.make deg 0 in
  let detour = Array.make m [||] in
  let missing = ref 0 in
  for u = 0 to n - 1 do
    (* targets in adjacency order *)
    let nt = ref 0 and budget = ref 0 in
    for a = off.(u) to off.(u + 1) - 1 do
      let v = dst.(a) and e = eid.(a) in
      if u < v && not keep.(e) then begin
        tv.(!nt) <- v;
        te.(!nt) <- e;
        incr nt;
        budget := max !budget (hmax * Graph.weight g e)
      end
    done;
    let nt = !nt and budget = !budget in
    if nt > 0 then begin
      dist.(u) <- 0;
      dirty.(0) <- u;
      best.(u) <- 0;
      best_layer.(u) <- 0;
      seen.(0) <- u;
      ndirty := 1;
      nseen := 1;
      !frontier.(0) <- u;
      let flen = ref 1 and h = ref 1 in
      while !h <= hmax && !flen > 0 do
        let fr = !frontier and nx = !next in
        let prev = (!h - 1) * n and base = !h * n in
        let nlen = ref 0 in
        for i = !flen - 1 downto 0 do
          let v = fr.(i) in
          let dv = dist.(prev + v) in
          for a = koff.(v) to koff.(v + 1) - 1 do
            let x = kdst.(a) in
            let nd = dv + kw.(a) in
            if nd <= budget && nd < best.(x) then begin
              let j = base + x in
              if dist.(j) = inf then begin
                nx.(!nlen) <- x;
                incr nlen;
                dirty.(!ndirty) <- j;
                incr ndirty
              end;
              dist.(j) <- nd;
              par.(j) <- v;
              if best.(x) = inf then begin
                seen.(!nseen) <- x;
                incr nseen
              end;
              best.(x) <- nd;
              best_layer.(x) <- !h
            end
          done
        done;
        frontier := nx;
        next := fr;
        flen := !nlen;
        (* Every later path has at least [h+1] kept arcs, so weighs at
           least [(h+1) * w_min]; once no target can strictly improve on
           that, the remaining layers cannot change the output. *)
        if !flen > 0 && !h < hmax then begin
          let bound = (!h + 1) * w_min in
          let t = ref 0 in
          while !t < nt && best.(tv.(!t)) <= bound do
            incr t
          done;
          if !t = nt then flen := 0
        end;
        incr h
      done;
      for t = 0 to nt - 1 do
        let v = tv.(t) and e = te.(t) in
        if best.(v) <= hmax * Graph.weight g e then begin
          let h = best_layer.(v) in
          let path = Array.make (h + 1) u in
          let cur = ref v in
          for hh = h downto 1 do
            path.(hh) <- !cur;
            cur := par.((hh * n) + !cur)
          done;
          detour.(e) <- path
        end
        else incr missing
      done;
      for i = 0 to !ndirty - 1 do
        dist.(dirty.(i)) <- inf
      done;
      for i = 0 to !nseen - 1 do
        best.(seen.(i)) <- inf
      done
    end
  done;
  { k; detour; missing = !missing }

type certificate_witness = {
  ck : int;
  forest : int array;
  parent : int array array;
  depth : int array array;
  root : int array array;
}

(* BFS labels for one forest: explore only edges accepted by [use]
   (already-claimed edges are skipped via [claimed]), rooting every
   component at its minimum vertex via the ascending start scan. *)
let peel_stage g ~use ~claim i w =
  let q = Queue.create () in
  let seen = Array.make (Graph.n g) false in
  for s = 0 to Graph.n g - 1 do
    if not seen.(s) then begin
      seen.(s) <- true;
      w.root.(i).(s) <- s;
      w.depth.(i).(s) <- 0;
      w.parent.(i).(s) <- -1;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        Graph.iter_adj g v (fun u eid ->
            if use eid && not seen.(u) then begin
              seen.(u) <- true;
              claim eid;
              w.forest.(eid) <- i + 1;
              w.parent.(i).(u) <- v;
              w.depth.(i).(u) <- w.depth.(i).(v) + 1;
              w.root.(i).(u) <- w.root.(i).(v);
              Queue.add u q
            end)
      done
    end
  done

let fresh_witness g k =
  let n = Graph.n g in
  {
    ck = k;
    forest = Array.make (Graph.m g) 0;
    parent = Array.init k (fun _ -> Array.make n (-1));
    depth = Array.init k (fun _ -> Array.make n 0);
    root = Array.init k (fun _ -> Array.make n (-1));
  }

let matches_keep keep w =
  let ok = ref true in
  Array.iteri (fun e kp -> if kp <> (w.forest.(e) >= 1) then ok := false) keep;
  !ok

(* Strategy 1: replay the Thurimella BFS peeling of the whole graph. *)
let thurimella_labels g k =
  let w = fresh_witness g k in
  let removed = Array.make (Graph.m g) false in
  for i = 0 to k - 1 do
    peel_stage g
      ~use:(fun eid -> not removed.(eid))
      ~claim:(fun eid -> removed.(eid) <- true)
      i w
  done;
  w

(* Strategy 2: the Nagamochi–Ibaraki forest partition.  Its first k
   forests satisfy the same peeling property (F_i is a maximal spanning
   forest of G minus the earlier forests); per-forest BFS labels are
   rebuilt here because the scan itself does not produce rooted trees. *)
let ni_labels g k =
  let label = Nagamochi_ibaraki.forests g in
  let w = fresh_witness g k in
  for i = 0 to k - 1 do
    peel_stage g
      ~use:(fun eid -> label.(eid) = i + 1)
      ~claim:(fun _ -> ())
      i w
  done;
  w

let certificate g cert =
  let k = cert.Certificate.k in
  let keep = cert.Certificate.keep in
  let w = thurimella_labels g k in
  if matches_keep keep w then Ok w
  else
    let w = ni_labels g k in
    if matches_keep keep w then Ok w
    else
      Error
        "certificate is not a maximal-spanning-forest peeling of the graph \
         (Thurimella/Nagamochi-Ibaraki); no forest labels exist - use exact \
         verification"
