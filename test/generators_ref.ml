(* The generators that [Generators.gnp], [Generators.ensure_connected],
   [Generators.random_geometric] and [Generators.preferential_attachment]
   replaced, kept unchanged as the reference for the differential tests in
   [test_graph.ml]: the linear-time builders must return structurally
   equal graphs and leave the RNG in the same state on every input.
   [gnp] decodes each sampled pair position with a row walk from row 0
   (O(m·n)), [random_geometric] checks all pairs (O(n²)) and
   [preferential_attachment] re-appends its whole endpoint pool per
   vertex (O(n²·degree)), so they are slow but obviously faithful to the
   distributions they specify. *)

open Ultraspan

let gnp ~rng ~n ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Generators.gnp: p out of range";
  let acc = ref [] in
  (* Geometric skipping for sparse p keeps this O(m) instead of O(n^2). *)
  if p >= 1.0 then
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        acc := (u, v, 1) :: !acc
      done
    done
  else if p > 0.0 then begin
    let log1mp = log (1.0 -. p) in
    let total = n * (n - 1) / 2 in
    let pos = ref (-1) in
    let decode i =
      (* i-th pair in lexicographic (u,v) order, u < v. *)
      let u = ref 0 and rem = ref i in
      while !rem >= n - 1 - !u do
        rem := !rem - (n - 1 - !u);
        incr u
      done;
      (!u, !u + 1 + !rem)
    in
    let continue = ref true in
    while !continue do
      let r = Rng.float rng 1.0 in
      let r = if r <= 0.0 then 1e-18 else r in
      let skip = int_of_float (floor (log r /. log1mp)) in
      pos := !pos + 1 + skip;
      if !pos >= total then continue := false
      else begin
        let u, v = decode !pos in
        acc := (u, v, 1) :: !acc
      end
    done
  end;
  Graph.of_edges ~n !acc

let random_geometric ~rng ~n ~radius =
  let xs = Array.init n (fun _ -> Rng.float rng 1.0) in
  let ys = Array.init n (fun _ -> Rng.float rng 1.0) in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
      let d = sqrt ((dx *. dx) +. (dy *. dy)) in
      if d <= radius then begin
        let w = max 1 (int_of_float (d /. radius *. 1000.0)) in
        acc := (u, v, w) :: !acc
      end
    done
  done;
  Graph.of_edges ~n !acc

let preferential_attachment ~rng ~n ~degree =
  if degree < 1 then invalid_arg "Generators.preferential_attachment";
  if n <= degree then invalid_arg "Generators.preferential_attachment: n too small";
  (* endpoint pool: each edge contributes both endpoints, so sampling from
     the pool is degree-proportional. *)
  let pool = ref [] in
  let acc = ref [] in
  (* seed: clique on degree+1 vertices *)
  for u = 0 to degree do
    for v = u + 1 to degree do
      acc := (u, v, 1) :: !acc;
      pool := u :: v :: !pool
    done
  done;
  let pool_arr = ref (Array.of_list !pool) in
  for v = degree + 1 to n - 1 do
    let targets = Hashtbl.create degree in
    let attempts = ref 0 in
    while Hashtbl.length targets < degree && !attempts < 50 * degree do
      incr attempts;
      let t = Rng.choose rng !pool_arr in
      if t <> v then Hashtbl.replace targets t ()
    done;
    let new_pool = ref [] in
    Hashtbl.iter
      (fun t () ->
        acc := (v, t, 1) :: !acc;
        new_pool := v :: t :: !new_pool)
      targets;
    pool_arr := Array.append !pool_arr (Array.of_list !new_pool)
  done;
  Graph.of_edges ~n !acc

let ensure_connected ~rng g =
  let comp, count = Connectivity.components g in
  if count <= 1 then g
  else begin
    (* one representative per component; link them in a random chain *)
    let reps = Array.make count (-1) in
    Array.iteri (fun v c -> if reps.(c) = -1 then reps.(c) <- v) comp;
    Rng.shuffle rng reps;
    let extra = ref [] in
    for i = 0 to count - 2 do
      extra := (reps.(i), reps.(i + 1), 1) :: !extra
    done;
    let existing =
      Array.to_list
        (Array.map (fun e -> (e.Graph.u, e.Graph.v, e.Graph.w)) (Graph.edges g))
    in
    Graph.of_edges ~n:(Graph.n g) (!extra @ existing)
  end

let connected_gnp ~rng ~n ~avg_degree =
  if n < 2 then invalid_arg "Generators.connected_gnp";
  let p = avg_degree /. float_of_int (n - 1) in
  let p = if p > 1.0 then 1.0 else p in
  ensure_connected ~rng (gnp ~rng ~n ~p)
