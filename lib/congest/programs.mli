open! Import

(** Distributed primitives written natively as CONGEST node programs.

    These run on the real message-passing simulator ({!Network.run}) and
    double as executable documentation of the model: their outputs are
    cross-checked against the centralized equivalents in the test-suite,
    and their measured round counts against the textbook bounds.

    Every program accepts an optional {!Trace} sink, forwarded verbatim to
    [Network.run ?trace], recording its per-round convergence behaviour
    without changing it, and optional [?engine] / [?jobs] selecting
    the simulator message plane and domain budget (see {!Network.engine}
    and {!Network.run}), likewise forwarded verbatim.  An optional
    [?metrics] registry, forwarded to [Network.run ?metrics], accumulates
    the deterministic run counters described there. *)

(** {1 BFS tree} *)

type bfs_result = { dist : int array; parent : int array }

val bfs :
  ?faults:Faults.t -> ?trace:Trace.t ->
  ?metrics:Ultraspan_util.Metrics.t -> ?engine:Network.engine ->
  ?jobs:int ->
  Graph.t -> root:int -> bfs_result * Network.stats
(** Distributed BFS flooding from the root.  Rounds ~ eccentricity + O(1);
    [dist]/[parent] agree with {!Bfs.tree}.  Under a fault schedule the
    protocol still terminates: unreached vertices keep [dist = -1], which
    makes BFS the resilience probe of the bench harness. *)

(** {1 Broadcast / convergecast} *)

val broadcast_max :
  ?faults:Faults.t -> ?trace:Trace.t ->
  ?metrics:Ultraspan_util.Metrics.t -> ?engine:Network.engine ->
  ?jobs:int ->
  Graph.t -> values:int array -> int array * Network.stats
(** Every node learns the maximum of all initial values, by flooding;
    rounds ~ diameter + O(1).  (A stand-in for generic broadcast: any
    idempotent associative aggregate works the same way.)  Under faults,
    nodes cut off from the maximum keep the largest value that reached
    them. *)

(** {1 Maximal matching} *)

val maximal_matching :
  ?trace:Trace.t -> ?metrics:Ultraspan_util.Metrics.t ->
  ?engine:Network.engine ->
  ?jobs:int -> Graph.t ->
  int array * Network.stats
(** Deterministic distributed maximal matching by locally-minimal edge
    proposals (each round, every unmatched node points at its smallest
    unmatched neighbour; mutually-pointing pairs marry).  Returns
    [mate] with [-1] for unmatched.  Validity (matching + maximality)
    is checked in tests. *)

(** {1 Weighted single-source shortest paths} *)

val bellman_ford :
  ?trace:Trace.t -> ?metrics:Ultraspan_util.Metrics.t ->
  ?engine:Network.engine ->
  ?jobs:int -> Graph.t -> source:int ->
  (int array * int array) * Network.stats
(** Distributed Bellman–Ford: distance announcements flood and relax until
    quiescence.  Returns [(dist, parent)] ([max_int]/[-1] when
    unreachable); agrees with the centralized Dijkstra (tested).  Rounds
    are bounded by the hop length of the longest shortest path. *)

(** {1 Spanning forest} *)

val spanning_forest :
  ?trace:Trace.t -> ?metrics:Ultraspan_util.Metrics.t ->
  ?engine:Network.engine ->
  ?jobs:int -> Graph.t ->
  int list * Network.stats
(** Min-id flooding: every vertex adopts the smallest vertex id reachable
    from it, and its parent is the neighbour it last adopted from — the
    parent edges form a spanning forest (one tree per component, rooted at
    the component's minimum vertex).  Rounds ~ component eccentricity.
    This is the distributed substrate under Thurimella-style certificate
    peeling. *)

(** {1 Maximal independent set} *)

val luby_mis :
  ?trace:Trace.t -> ?metrics:Ultraspan_util.Metrics.t ->
  ?engine:Network.engine ->
  ?jobs:int -> seed:int -> Graph.t ->
  bool array * Network.stats
(** Luby's randomized MIS as a message-passing program: three rounds per
    phase (priorities, winner announcements, removal notices); local maxima
    join the set.  Per-node randomness comes from a hash of
    [(seed, vertex, phase)], so runs are reproducible.  O(log n) phases
    w.h.p. *)
