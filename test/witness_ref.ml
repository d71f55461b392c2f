(* The list-based detour-witness builder that [Witness.spanner] replaced,
   kept unchanged as the reference for the differential tests in
   [test_verify.ml]: the flat-array builder must return byte-identical
   [detour] and [missing] on every input.  It relaxes every kept arc of
   every frontier vertex for all [2k-1] layers and finds each target's
   best layer by scanning all layers, so it is slow but obviously
   faithful to the layered search it specifies. *)

open Ultraspan

(* Hop-bounded, budget-pruned shortest paths inside the spanner subgraph.
   [dist.(h*n + v)] is the least weight of an explored path from the
   source to [v] with at most [h] hops that was *improved at layer h*;
   the true <=h-hop optimum is the min over layers [0..h].  [par] records
   the predecessor of each explicit entry, so backtracking from an
   argmin layer walks a path with exactly that many hops.  Arrays are
   sized once and reset through [touched] between sources. *)
let spanner g ~k sp =
  if k < 1 then invalid_arg "Witness_ref.spanner: k >= 1";
  let n = Graph.n g and m = Graph.m g in
  let keep = sp.Spanner.keep in
  if Array.length keep <> m then
    invalid_arg "Witness_ref.spanner: keep length mismatch";
  let hmax = (2 * k) - 1 in
  let inf = max_int in
  let layers = hmax + 1 in
  let dist = Array.make (layers * n) inf in
  let par = Array.make (layers * n) (-1) in
  let touched = ref [] in
  let set h v d p =
    let i = (h * n) + v in
    if dist.(i) = inf then touched := i :: !touched;
    dist.(i) <- d;
    par.(i) <- p
  in
  let get h v = dist.((h * n) + v) in
  let best_upto h v =
    (* min over layers 0..h, preferring the fewest hops on ties *)
    let bd = ref inf and bh = ref (-1) in
    for h' = 0 to h do
      let d = get h' v in
      if d < !bd then begin
        bd := d;
        bh := h'
      end
    done;
    (!bd, !bh)
  in
  let detour = Array.make m [||] in
  let missing = ref 0 in
  for u = 0 to n - 1 do
    let targets =
      Graph.fold_adj g u
        (fun acc v eid ->
          if u < v && not keep.(eid) then (v, eid) :: acc else acc)
        []
    in
    if targets <> [] then begin
      let budget =
        List.fold_left
          (fun b (_, eid) -> max b (hmax * Graph.weight g eid))
          0 targets
      in
      set 0 u 0 (-1);
      let frontier = ref [ u ] in
      for h = 1 to hmax do
        let next = ref [] in
        List.iter
          (fun v ->
            let dv = get (h - 1) v in
            Graph.iter_adj g v (fun v' eid ->
                if keep.(eid) then begin
                  let nd = dv + Graph.weight g eid in
                  let cur, _ = best_upto h v' in
                  if nd <= budget && nd < cur then begin
                    if get h v' = inf then next := v' :: !next;
                    set h v' nd v
                  end
                end))
          (List.rev !frontier);
        frontier := List.rev !next
      done;
      List.iter
        (fun (v, eid) ->
          let d, h = best_upto hmax v in
          if d <= hmax * Graph.weight g eid then begin
            let path = Array.make (h + 1) 0 in
            let cur = ref v and hh = ref h in
            while !hh >= 0 do
              path.(!hh) <- !cur;
              cur := par.((!hh * n) + !cur);
              decr hh
            done;
            detour.(eid) <- path
          end
          else incr missing)
        (List.rev targets);
      List.iter
        (fun i ->
          dist.(i) <- inf;
          par.(i) <- -1)
        !touched;
      touched := []
    end
  done;
  { Witness.k; detour; missing = !missing }
