module Rng = Ultraspan_util.Rng

let path n =
  Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1, 1)))

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Graph.of_edges ~n ((n - 1, 0, 1) :: List.init (n - 1) (fun i -> (i, i + 1, 1)))

let complete n =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      acc := (u, v, 1) :: !acc
    done
  done;
  Graph.of_edges ~n !acc

let star n =
  if n < 1 then invalid_arg "Generators.star: need n >= 1";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1, 1)))

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid";
  let idx r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then acc := (idx r c, idx r (c + 1), 1) :: !acc;
      if r + 1 < rows then acc := (idx r c, idx (r + 1) c, 1) :: !acc
    done
  done;
  Graph.of_edges ~n:(rows * cols) !acc

let torus rows cols =
  if rows < 3 || cols < 3 then invalid_arg "Generators.torus: dims >= 3";
  let idx r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      acc := (idx r c, idx r ((c + 1) mod cols), 1) :: !acc;
      acc := (idx r c, idx ((r + 1) mod rows) c, 1) :: !acc
    done
  done;
  Graph.of_edges ~n:(rows * cols) !acc

let hypercube d =
  if d < 0 || d > 20 then invalid_arg "Generators.hypercube";
  let n = 1 lsl d in
  let acc = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to d - 1 do
      let u = v lxor (1 lsl b) in
      if u > v then acc := (v, u, 1) :: !acc
    done
  done;
  Graph.of_edges ~n !acc

let binary_tree n =
  Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i + 1, i / 2, 1)))

let caterpillar spine legs =
  if spine < 1 || legs < 0 then invalid_arg "Generators.caterpillar";
  let n = spine * (1 + legs) in
  let acc = ref [] in
  for s = 0 to spine - 2 do
    acc := (s, s + 1, 1) :: !acc
  done;
  for s = 0 to spine - 1 do
    for l = 0 to legs - 1 do
      acc := (s, spine + (s * legs) + l, 1) :: !acc
    done
  done;
  Graph.of_edges ~n !acc

let circulant n offsets =
  if n < 2 then invalid_arg "Generators.circulant";
  let acc = ref [] in
  List.iter
    (fun o ->
      if o <= 0 || o >= n then invalid_arg "Generators.circulant: bad offset";
      for v = 0 to n - 1 do
        let u = (v + o) mod n in
        if u <> v then acc := (v, u, 1) :: !acc
      done)
    offsets;
  Graph.of_edges ~n !acc

let harary ~k ~n =
  if k < 1 || k >= n then invalid_arg "Generators.harary: need 1 <= k < n";
  let half = k / 2 in
  let offsets = List.init half (fun i -> i + 1) in
  let acc = ref [] in
  List.iter
    (fun o ->
      for v = 0 to n - 1 do
        acc := (v, (v + o) mod n, 1) :: !acc
      done)
    offsets;
  if k mod 2 = 1 then
    if n mod 2 = 0 then
      for v = 0 to (n / 2) - 1 do
        acc := (v, v + (n / 2), 1) :: !acc
      done
    else begin
      (* Odd k, odd n: the classic construction joins i to i + (n-1)/2 and
         i to i + (n+1)/2 for i = 0, yielding ceil(kn/2) edges. *)
      for v = 0 to (n - 1) / 2 do
        acc := (v, v + ((n - 1) / 2), 1) :: !acc
      done;
      acc := (0, (n + 1) / 2, 1) :: !acc
    end;
  Graph.of_edges
    ~n
    (List.filter (fun (u, v, _) -> u <> v) !acc)

(* Growable int array with amortized O(1) appends: the flat edge and
   endpoint buffers of the random families below. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create cap = { a = Array.make (max 16 cap) 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let bigger = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 bigger 0 b.len;
      b.a <- bigger
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1
end

(* Edge stream of the pair positions in [b] — strictly increasing indices
   into the lexicographic sequence (0,1), (0,2), …, (0,n-1), (1,2), … of
   pairs u < v.  The row cursor [u] (with [row] the position of its first
   pair) only moves forward, so one pass decodes all positions in
   O(n + len), and each vertex's bucket comes out sorted. *)
let position_stream ~n b f =
  let u = ref 0 and row = ref 0 in
  for i = 0 to b.Ibuf.len - 1 do
    let p = b.Ibuf.a.(i) in
    while p >= !row + (n - 1 - !u) do
      row := !row + (n - 1 - !u);
      incr u
    done;
    f !u (!u + 1 + p - !row) 1
  done

(* The accepted pair positions of G(n, p), in increasing order. *)
let gnp_positions ~rng ~n ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Generators.gnp: p out of range";
  let total = n * (n - 1) / 2 in
  let expected = p *. float_of_int total in
  let pos =
    Ibuf.create
      (min total (int_of_float (expected +. (4.0 *. sqrt expected))) + 16)
  in
  (* Geometric skipping (Batagelj & Brandes 2005): one draw per accepted
     pair plus one past the end, O(n + m) with the forward cursor. *)
  if p >= 1.0 then
    for i = 0 to total - 1 do
      Ibuf.push pos i
    done
  else if p > 0.0 then begin
    (* When 1 - p rounds to 1, log1p keeps the skip finite. *)
    let log1mp =
      let l = log (1.0 -. p) in
      if l = 0.0 then log1p (-.p) else l
    in
    let last = ref (-1) in
    let continue = ref true in
    while !continue do
      let r = Rng.float rng 1.0 in
      let r = if r <= 0.0 then 1e-18 else r in
      let s = floor (log r /. log1mp) in
      (* a skip past the end is clamped before int_of_float can overflow *)
      let skip = if s >= float_of_int total then total else int_of_float s in
      last := !last + 1 + skip;
      if !last >= total then continue := false else Ibuf.push pos !last
    done
  end;
  pos

let gnp ~rng ~n ~p =
  Graph.of_edge_iter ~n (position_stream ~n (gnp_positions ~rng ~n ~p))

let gnm ~rng ~n ~m =
  let total = n * (n - 1) / 2 in
  if m < 0 || m > total then invalid_arg "Generators.gnm: m out of range";
  let chosen = Hashtbl.create (2 * m) in
  while Hashtbl.length chosen < m do
    let u = Rng.int rng n in
    let v = Rng.int rng n in
    if u <> v then begin
      let key = if u < v then (u, v) else (v, u) in
      if not (Hashtbl.mem chosen key) then Hashtbl.replace chosen key ()
    end
  done;
  let acc = Hashtbl.fold (fun (u, v) () l -> (u, v, 1) :: l) chosen [] in
  Graph.of_edges ~n acc

(* Edge stream over the endpoint pairs (a.(2i), a.(2i+1)) of [b], weighted
   by [w u v]. *)
let pair_buf_stream b w f =
  for i = 0 to (b.Ibuf.len / 2) - 1 do
    let u = b.Ibuf.a.(2 * i) and v = b.Ibuf.a.((2 * i) + 1) in
    f u v (w u v)
  done

let random_geometric ~rng ~n ~radius =
  let xs = Array.init n (fun _ -> Rng.float rng 1.0) in
  let ys = Array.init n (fun _ -> Rng.float rng 1.0) in
  let dist u v =
    let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
    sqrt ((dx *. dx) +. (dy *. dy))
  in
  (* Bucket the points into k×k cells of side 1/k >= radius (with a margin
     against rounding), so every pair within [radius] lies in the same or
     adjacent cells.  k <= sqrt n bounds the cell count by n; radius <= 0
     only joins coincident points, which always share a cell. *)
  let k =
    let cap = max 1 (int_of_float (sqrt (float_of_int n))) in
    let per_side = (1.0 -. 1e-9) /. radius in
    if radius <= 0.0 || per_side >= float_of_int cap then cap
    else max 1 (int_of_float per_side)
  in
  let cell_of x = min (k - 1) (int_of_float (x *. float_of_int k)) in
  let cell v = (cell_of ys.(v) * k) + cell_of xs.(v) in
  (* counting sort: [pts.(off.(c) .. off.(c+1)-1)] are cell c's points,
     in increasing id order *)
  let off = Array.make ((k * k) + 1) 0 in
  for v = 0 to n - 1 do
    let c = cell v in
    off.(c + 1) <- off.(c + 1) + 1
  done;
  for c = 0 to (k * k) - 1 do
    off.(c + 1) <- off.(c + 1) + off.(c)
  done;
  let pts = Array.make n 0 in
  let cur = Array.sub off 0 (k * k) in
  for v = 0 to n - 1 do
    let c = cell v in
    pts.(cur.(c)) <- v;
    cur.(c) <- cur.(c) + 1
  done;
  let pairs = Ibuf.create (2 * n) in
  for u = 0 to n - 1 do
    let cx = cell_of xs.(u) and cy = cell_of ys.(u) in
    for ny = max 0 (cy - 1) to min (k - 1) (cy + 1) do
      for nx = max 0 (cx - 1) to min (k - 1) (cx + 1) do
        let c = (ny * k) + nx in
        for i = off.(c) to off.(c + 1) - 1 do
          let v = pts.(i) in
          if v > u && dist u v <= radius then begin
            Ibuf.push pairs u;
            Ibuf.push pairs v
          end
        done
      done
    done
  done;
  Graph.of_edge_iter ~n
    (pair_buf_stream pairs (fun u v ->
         max 1 (int_of_float (dist u v /. radius *. 1000.0))))

let preferential_attachment ~rng ~n ~degree =
  if degree < 1 then invalid_arg "Generators.preferential_attachment";
  if n <= degree then invalid_arg "Generators.preferential_attachment: n too small";
  (* endpoint pool: each edge contributes both endpoints, so sampling from
     the pool is degree-proportional; its consecutive pairs are the
     edges. *)
  let pool = Ibuf.create (2 * n * degree) in
  (* seed: clique on degree+1 vertices, pooled in reverse pair order *)
  for u = degree downto 0 do
    for v = degree downto u + 1 do
      Ibuf.push pool u;
      Ibuf.push pool v
    done
  done;
  let picked = Array.make degree 0 in
  for v = degree + 1 to n - 1 do
    let targets = Hashtbl.create degree in
    let attempts = ref 0 in
    while Hashtbl.length targets < degree && !attempts < 50 * degree do
      incr attempts;
      let t = pool.Ibuf.a.(Rng.int rng pool.Ibuf.len) in
      if t <> v then Hashtbl.replace targets t ()
    done;
    (* pool the new edges in reverse table order *)
    let j = ref 0 in
    Hashtbl.iter
      (fun t () ->
        picked.(!j) <- t;
        incr j)
      targets;
    for i = !j - 1 downto 0 do
      Ibuf.push pool v;
      Ibuf.push pool picked.(i)
    done
  done;
  Graph.of_edge_iter ~n (pair_buf_stream pool (fun _ _ -> 1))

let random_regular ~rng ~n ~d =
  if d < 1 || d >= n then invalid_arg "Generators.random_regular: 1 <= d < n";
  if n * d mod 2 <> 0 then
    invalid_arg "Generators.random_regular: n*d must be even";
  (* Configuration model: shuffle the multiset of d copies of each vertex
     and pair consecutive stubs, dropping self-loops and duplicates. *)
  let stubs = Array.concat (List.init n (fun v -> Array.make d v)) in
  Rng.shuffle rng stubs;
  let acc = ref [] in
  let seen = Hashtbl.create (n * d) in
  let half = Array.length stubs / 2 in
  for i = 0 to half - 1 do
    let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
    if u <> v then begin
      let key = if u < v then (u, v) else (v, u) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        acc := (u, v, 1) :: !acc
      end
    end
  done;
  Graph.of_edges ~n !acc

let lollipop clique_n path_n =
  if clique_n < 1 || path_n < 0 then invalid_arg "Generators.lollipop";
  let n = clique_n + path_n in
  let acc = ref [] in
  for u = 0 to clique_n - 1 do
    for v = u + 1 to clique_n - 1 do
      acc := (u, v, 1) :: !acc
    done
  done;
  for i = 0 to path_n - 1 do
    let prev = if i = 0 then clique_n - 1 else clique_n + i - 1 in
    acc := (prev, clique_n + i, 1) :: !acc
  done;
  Graph.of_edges ~n !acc

let randomize_weights ~rng ~lo ~hi g =
  if lo < 0 || hi < lo then invalid_arg "Generators.randomize_weights";
  Graph.with_weights g (fun _ -> Rng.int_in rng lo hi)

module Uf = Ultraspan_util.Union_find

(* The chain [ensure_connected] adds to the edge stream [iter] on [n]
   vertices: one representative per component — its least vertex, in
   increasing order, exactly as [Connectivity.components] labels them —
   shuffled.  The components come from a union-find over the stream, so
   no graph has to be built first. *)
let chain_reps ~rng ~n iter =
  let uf = Uf.create n in
  iter (fun u v _ -> ignore (Uf.union uf u v));
  let reps = Array.make (Uf.count uf) 0 in
  let seen = Array.make n false and j = ref 0 in
  for v = 0 to n - 1 do
    let r = Uf.find uf v in
    if not seen.(r) then begin
      seen.(r) <- true;
      reps.(!j) <- v;
      incr j
    end
  done;
  Rng.shuffle rng reps;
  reps

let with_chain reps iter f =
  for i = 0 to Array.length reps - 2 do
    f reps.(i) reps.(i + 1) 1
  done;
  iter f

let ensure_connected ~rng g =
  let n = Graph.n g in
  let iter f = Graph.iter_edges g (fun e -> f e.Graph.u e.Graph.v e.Graph.w) in
  let reps = chain_reps ~rng ~n iter in
  if Array.length reps <= 1 then g
  else Graph.of_edge_iter ~n (with_chain reps iter)

(* G(n, p) and its chain in one build: the components are read off the
   positions, never off an intermediate graph. *)
let connected_gnp ~rng ~n ~avg_degree =
  if n < 2 then invalid_arg "Generators.connected_gnp";
  let p = avg_degree /. float_of_int (n - 1) in
  let p = if p > 1.0 then 1.0 else p in
  let iter = position_stream ~n (gnp_positions ~rng ~n ~p) in
  Graph.of_edge_iter ~n (with_chain (chain_reps ~rng ~n iter) iter)

let weighted_connected_gnp ~rng ~n ~avg_degree ~max_w =
  randomize_weights ~rng ~lo:1 ~hi:max_w (connected_gnp ~rng ~n ~avg_degree)

(* ---------- streamed families ----------

   Edge streams for topologies too large to materialize as tuple lists.
   Each constructor produces a {e replayable} iterator — [Graph.of_edge_iter]
   consumes it twice, so randomized families build a fresh [Rng] from the
   seed on every pass instead of threading shared state. *)

module Streamed = struct
  type t = { sn : int; iter : (int -> int -> int -> unit) -> unit }

  let n s = s.sn

  let iter s f = s.iter f

  let graph s = Graph.of_edge_iter ~n:s.sn s.iter

  let grid rows cols =
    if rows < 1 || cols < 1 then invalid_arg "Generators.Streamed.grid";
    let idx r c = (r * cols) + c in
    let iter f =
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          if c + 1 < cols then f (idx r c) (idx r (c + 1)) 1;
          if r + 1 < rows then f (idx r c) (idx (r + 1) c) 1
        done
      done
    in
    { sn = rows * cols; iter }

  let torus rows cols =
    if rows < 3 || cols < 3 then
      invalid_arg "Generators.Streamed.torus: dims >= 3";
    let idx r c = (r * cols) + c in
    let iter f =
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          f (idx r c) (idx r ((c + 1) mod cols)) 1;
          f (idx r c) (idx ((r + 1) mod rows) c) 1
        done
      done
    in
    { sn = rows * cols; iter }

  let degree_bounded ~seed ~n ~degree =
    if n < 3 then invalid_arg "Generators.Streamed.degree_bounded: n >= 3";
    if degree < 2 || degree >= n then
      invalid_arg "Generators.Streamed.degree_bounded: 2 <= degree < n";
    let iter f =
      let rng = Rng.create seed in
      (* cycle backbone keeps the graph connected *)
      for v = 0 to n - 1 do
        f v ((v + 1) mod n) 1
      done;
      (* random chords: every draw consumes the rng, even the rejected
         self-loop ones, so both passes see the same stream *)
      for v = 0 to n - 1 do
        for _ = 1 to degree - 2 do
          let u = Rng.int rng n in
          if u <> v then f v u 1
        done
      done
    in
    { sn = n; iter }

  let preferential ~seed ~n ~degree =
    if degree < 1 then invalid_arg "Generators.Streamed.preferential";
    if n <= degree then
      invalid_arg "Generators.Streamed.preferential: n too small";
    let iter f =
      let rng = Rng.create seed in
      (* Growable endpoint pool: sampling from it is degree-proportional. *)
      let pool = Ibuf.create 1024 in
      for u = 0 to degree do
        for v = u + 1 to degree do
          f u v 1;
          Ibuf.push pool u;
          Ibuf.push pool v
        done
      done;
      let targets = Array.make degree (-1) in
      for v = degree + 1 to n - 1 do
        let k = ref 0 in
        let attempts = ref 0 in
        while !k < degree && !attempts < 50 * degree do
          incr attempts;
          let t = pool.Ibuf.a.(Rng.int rng pool.Ibuf.len) in
          let dup = ref (t = v) in
          for i = 0 to !k - 1 do
            if targets.(i) = t then dup := true
          done;
          if not !dup then begin
            targets.(!k) <- t;
            incr k
          end
        done;
        for i = 0 to !k - 1 do
          f v targets.(i) 1;
          Ibuf.push pool v;
          Ibuf.push pool targets.(i)
        done
      done
    in
    { sn = n; iter }
end
