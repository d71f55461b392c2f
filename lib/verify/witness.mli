open! Import

(** Witness builders: attach locally checkable certificates to outputs.

    The builders are centralized (they run next to the algorithm that
    produced the artifact, where the whole graph is in memory); the
    produced labels are per-node/per-edge state that the CONGEST checker
    programs in {!Checkers} then verify distributedly. *)

(** {1 Spanner detour witnesses} *)

type spanner_witness = {
  k : int;  (** stretch parameter: the spanner claims stretch [2k-1] *)
  detour : int array array;
      (** [detour.(e)] for each non-spanner edge [e = (u,v)]: the vertex
          sequence [u, x1, ..., v] of a replacement path inside the
          spanner with at most [2k-1] hops and weight at most
          [(2k-1) * w(e)]; [[||]] for spanner edges and for non-spanner
          edges where no such path exists.  Conceptually the path is
          recorded at {e both} endpoints (the checker's far endpoint
          cross-checks its copy against the delivered walk). *)
  missing : int;
      (** Non-spanner edges with no hop-and-weight-bounded replacement
          path.  Nonzero means the local checker will reject: either the
          spanner genuinely violates the stretch bound, or it was built
          by a construction (e.g. weighted greedy) whose detours are
          weight-bounded but not hop-bounded — see the scope note. *)
}

val spanner : Graph.t -> k:int -> Spanner.t -> spanner_witness
(** Build detour witnesses by hop-bounded shortest-path search ([<= 2k-1]
    layers of relaxation over kept edges, pruned at the budget
    [(2k-1) * max w(e)] over the source's non-spanner edges) inside the
    spanner subgraph, one search per smaller endpoint [u] of a
    non-spanner edge.

    {b Early exit.}  The search from [u] stops after layer [h] once every
    target [v] (the larger endpoint of a non-spanner edge at [u]) has a
    recorded weight [<= (h+1) * w_min], with [w_min] the least kept
    edge weight: every path with more hops weighs at least that, and
    only strict improvements are recorded, so the later layers could
    not change any detour.

    {b Tie-break contract.}  A relaxation is recorded only when it is
    strictly lighter than every path recorded to that vertex so far, at
    any hop count.  So each detour is a least-weight path of at most
    [2k-1] kept edges, with the fewest hops among those, and among equal
    candidates the first one found wins.  Layer [h] expands the vertices
    recorded at layer [h-1] in reverse recording order, and each
    vertex's kept arcs in increasing neighbour order.  The output is a
    pure function of the graph, [k] and the mask.

    {b Cost.}  O(n·(2k) + m) scratch, allocated once per call (per-layer
    weights and predecessors, two frontier arrays, reset stacks, and the
    kept arcs in their own CSR so dropped arcs are never walked); no
    allocation per relaxation, only the detour paths themselves.  Time
    is at most O(n + m) per source and layer.

    {b Scope.}  The paper's cluster-based constructions (Baswana–Sen and
    its derandomization, the linear-size and ultra-sparse spanners)
    guarantee replacement paths that satisfy the hop {e and} weight bound
    simultaneously, so their witnesses are always complete; on unit
    weights any valid [(2k-1)]-spanner admits them.  A weighted spanner
    whose stretch guarantee is weight-only may yield [missing > 0] even
    when valid — use exact verification there. *)

(** {1 Certificate forest witnesses} *)

type certificate_witness = {
  ck : int;  (** connectivity parameter *)
  forest : int array;  (** edge id -> peel index [1..k], [0] = not kept *)
  parent : int array array;  (** [parent.(i-1).(v)]: parent in [F_i], -1 *)
  depth : int array array;
  root : int array array;
}

val certificate :
  Graph.t -> Certificate.t -> (certificate_witness, string) result
(** Label the certificate as a maximal-spanning-forest peeling
    [F_1 .. F_k] of the graph.  Two strategies are tried in order:

    - replay the Thurimella BFS peeling of the whole graph (bit-exact
      with {!Thurimella.certificate}) and use its forests when their
      union is exactly the certificate's edge set;
    - otherwise fall back to the Nagamochi–Ibaraki forest partition
      ({!Nagamochi_ibaraki.forests}) when its first [k] forests match,
      rooting each forest component at its minimum vertex.

    Certificates built by other means (spanner packing, KECSS) are
    generally {e not} unions of graph peelings; for those the builder
    returns [Error] and callers fall back to exact verification. *)
