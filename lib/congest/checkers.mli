open! Import

(** CONGEST checker programs: distributed verification of locally
    checkable witnesses.

    These are the distributed half of the verification plane (the witness
    builders live in [Ultraspan_verify.Witness], which depends on this
    library — hence the plain-array interface here: a checker sees only
    the graph, a membership mask and per-node/per-edge label arrays, never
    the [Spanner.t]/[Certificate.t] records).

    Both programs follow the proof-labeling-scheme discipline: every node
    starts from its own slice of the witness, exchanges messages only with
    neighbours, and outputs a local accept/reject bit; the artifact is
    valid only if {e every} node accepts (a single global AND, which a real
    deployment would gather with one convergecast).  Like every program in
    this library they run on both engines with byte-identical verdicts and
    stats at any [?jobs].

    {b Round bounds.}  {!forests} is a 2-round protocol (one label
    exchange, one check round) with [3k]-word messages.  {!spanner}
    pipelines one walk token per detour witness along its replacement
    path: each token travels at most [2k-1] hops and each edge carries at
    most one token per round, so the round count is [O(k + c)] where [c]
    is the walk congestion (max walks queued through one edge) — in
    particular independent of [n]; the V1 bench table records the measured
    counts. *)

type verdict = {
  accept : bool array;  (** per-node accept bit *)
  stats : Network.stats;
}

val all_accept : verdict -> bool
(** The global AND over the per-node bits. *)

val spanner :
  ?engine:Network.engine ->
  ?jobs:int ->
  ?metrics:Ultraspan_util.Metrics.t ->
  Graph.t ->
  keep:bool array ->
  k:int ->
  detour:int array array ->
  verdict
(** Verify that [keep] is a spanning [(2k-1)]-spanner of the graph from
    per-edge detour witnesses.  [detour.(e)] is the replacement-path
    witness for each non-spanner edge [e = (u,v)]: a vertex sequence
    [u, x1, ..., v] of at most [2k-1] hops whose edges all lie in the
    spanner with total weight at most [(2k-1) * w(e)] (the empty array for
    spanner edges).  The canonical endpoint [min u v] launches a walk
    token that replays the path hop by hop; the holder of the token
    rejects if the next hop is not an incident spanner edge, and the far
    endpoint rejects unless the accumulated weight meets the stretch
    budget and the delivered path matches its own recorded copy.  A
    missing or malformed witness is rejected by its launcher without any
    communication.  Acceptance by all nodes implies the spanner is
    spanning {e and} within stretch [2k-1]: an edge whose endpoints lie in
    different spanner components can have no all-spanner-edge detour. *)

val forests :
  ?engine:Network.engine ->
  ?jobs:int ->
  ?metrics:Ultraspan_util.Metrics.t ->
  Graph.t ->
  keep:bool array ->
  k:int ->
  forest:int array ->
  parent:int array array ->
  depth:int array array ->
  root:int array array ->
  verdict
(** Verify a k-connectivity certificate from forest-membership labels.
    The witness asserts [keep] is a union of forests [F_1 .. F_k] peeled
    Thurimella-style from the graph ([F_i] a maximal spanning forest of
    [G - F_1 - .. - F_(i-1)]): [forest.(e)] is the peel index in
    [1..k] ([0] = not in the certificate), and for each peel [i] node [v]
    carries [parent.(i-1).(v)] (parent vertex, [-1] at roots),
    [depth.(i-1).(v)] and [root.(i-1).(v)].  After one exchange of label
    vectors every node checks, per incident edge: membership consistency
    ([keep] iff labeled), the tree-edge rule for the edge's own peel
    (equal roots, one endpoint the other's parent at depth +1 — parent
    pointers with strictly decreasing depth cannot close a cycle, so each
    labeled set is a forest with truthful root labels), and the
    maximality rule (endpoints share a root in every peel {e before} the
    edge's own — so each [F_i] really is maximal w.r.t. the whole graph).
    Acceptance by all nodes therefore certifies the Nagamochi–Ibaraki
    sufficient condition; the checker is complete for peeling-built
    certificates (every valid Thurimella witness accepts) but a certificate
    constructed by other means need not admit such labels. *)
