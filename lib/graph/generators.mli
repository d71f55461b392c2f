(** Graph generators for tests, examples and the bench harness.

    All randomized generators take an explicit {!Ultraspan_util.Rng.t} and
    are fully reproducible.  Weighted variants draw integer weights from
    the given inclusive range (the paper assumes poly(n)-bounded weights). *)

(** {1 Deterministic families} *)

val path : int -> Graph.t
val cycle : int -> Graph.t
val complete : int -> Graph.t
val star : int -> Graph.t

val grid : int -> int -> Graph.t
(** [grid rows cols], 4-neighbour mesh. *)

val torus : int -> int -> Graph.t
(** [torus rows cols], wrap-around mesh; requires both dims >= 3 to avoid
    parallel edges. *)

val hypercube : int -> Graph.t
(** [hypercube d] on 2^d vertices. *)

val binary_tree : int -> Graph.t
(** Complete binary tree on n vertices (heap layout). *)

val caterpillar : int -> int -> Graph.t
(** [caterpillar spine legs]: a path with [legs] pendant vertices per spine
    vertex.  A classic hard case for clustering radius bounds. *)

val harary : k:int -> n:int -> Graph.t
(** Harary graph H_{k,n}: the minimal k-edge-connected graph on [n]
    vertices, with ceil(kn/2) edges (circulant construction).  Requires
    [1 <= k < n].  Ground truth for the connectivity-certificate tests. *)

val circulant : int -> int list -> Graph.t
(** [circulant n offsets] joins [i] to [i + o mod n] for each offset. *)

(** {1 Random families} *)

val gnp : rng:Ultraspan_util.Rng.t -> n:int -> p:float -> Graph.t
(** Erdős–Rényi G(n,p) (possibly disconnected), in O(n + m) time and one
    word of scratch per edge: geometric skips over the pair sequence
    (Batagelj & Brandes 2005), one draw per edge plus one, decoded by a
    row cursor that only moves forward and folded straight into CSR by
    {!Graph.of_edge_iter}.  A [p] so small that [1 - p] rounds to 1 still
    samples G(n, p), which is almost surely empty at any feasible [n]. *)

val gnm : rng:Ultraspan_util.Rng.t -> n:int -> m:int -> Graph.t
(** Uniform graph with exactly [m] distinct edges ([m] <= n(n-1)/2). *)

val random_geometric :
  rng:Ultraspan_util.Rng.t -> n:int -> radius:float -> Graph.t
(** Unit-square random geometric graph; edge weights are the Euclidean
    distances scaled to integers in [1, 1000].  Expected O(n + m) time:
    points are bucketed into square cells of side at least [radius], and
    only the 3×3 neighbourhood of each point's cell is scanned.  A
    [radius <= 0] joins only coincident points. *)

val preferential_attachment :
  rng:Ultraspan_util.Rng.t -> n:int -> degree:int -> Graph.t
(** Barabási–Albert-style: each new vertex attaches to [degree] existing
    vertices sampled proportionally to degree.  Connected by
    construction.  O(n·degree) time over a flat endpoint pool. *)

val random_regular : rng:Ultraspan_util.Rng.t -> n:int -> d:int -> Graph.t
(** d-regular-ish graph by the configuration model with rejection of
    self-loops and duplicates (so a few vertices may fall short of degree
    d).  Requires [n·d] even and [d < n].  Expander-like for d >= 3 —
    a stress case for the clustering constructions. *)

val lollipop : int -> int -> Graph.t
(** [lollipop clique_n path_n]: a clique with a path attached — maximizes
    the gap between diameter-dependent baselines (Thurimella) and the
    paper's polylog algorithms. *)

(** {1 Combinators} *)

val randomize_weights :
  rng:Ultraspan_util.Rng.t -> lo:int -> hi:int -> Graph.t -> Graph.t
(** Same topology and ids, weights uniform in [\[lo, hi\]]. *)

val ensure_connected : rng:Ultraspan_util.Rng.t -> Graph.t -> Graph.t
(** Add random inter-component edges (weight 1) until connected: a chain
    through one representative per component (its least vertex), in
    shuffled order.  Edge ids are {e not} preserved.  O(n + m) up to the
    inverse-Ackermann factor of the union-find that finds the components,
    plus one {!Graph.of_edge_iter} rebuild when [g] is disconnected. *)

val connected_gnp :
  rng:Ultraspan_util.Rng.t -> n:int -> avg_degree:float -> Graph.t
(** G(n, p) with [p = avg_degree/(n-1)], patched to be connected; equal
    to [ensure_connected ~rng (gnp ~rng ~n ~p)], but the components are
    read off the sampled pairs, so the graph is built once.  O(n + m) as
    for {!gnp} and {!ensure_connected}.  The bench harness's default
    workload. *)

val weighted_connected_gnp :
  rng:Ultraspan_util.Rng.t -> n:int -> avg_degree:float -> max_w:int -> Graph.t
(** {!connected_gnp} then weights uniform in [\[1, max_w\]]. *)

(** {1 Streamed families}

    Generators for n = 10^6..10^7 topologies that never materialize an
    edge list: each value is a replayable edge {e stream} that
    {!Graph.of_edge_iter} folds straight into CSR form.  Randomized
    families take a [seed] (not an [Rng.t]) because the stream is
    consumed twice and must replay identically — a fresh generator is
    built from the seed on every pass. *)

module Streamed : sig
  type t
  (** A replayable edge stream with a known vertex count. *)

  val n : t -> int
  (** Number of vertices of the topology the stream describes. *)

  val iter : t -> (int -> int -> int -> unit) -> unit
  (** [iter s f] calls [f u v w] once per streamed edge.  Replayable:
      successive calls produce the identical sequence. *)

  val graph : t -> Graph.t
  (** Materialize via {!Graph.of_edge_iter} — structurally equal to
      building the same edges through {!Graph.of_edge_array}. *)

  val degree_bounded : seed:int -> n:int -> degree:int -> t
  (** Cycle backbone (connected by construction) plus [degree - 2]
      random chords per vertex; average degree about [degree].
      Requires [2 <= degree < n] and [n >= 3]. *)

  val grid : int -> int -> t
  (** Streamed {!Generators.grid}. *)

  val torus : int -> int -> t
  (** Streamed {!Generators.torus}. *)

  val preferential : seed:int -> n:int -> degree:int -> t
  (** Barabási–Albert-style preferential attachment with a growable
      endpoint pool; connected by construction.  Unlike
      {!preferential_attachment}, target selection is insertion-ordered
      (no hash-table iteration), so the stream replays exactly. *)
end
