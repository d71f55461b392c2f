open! Import

(** Baswana–Sen as a genuine message-passing CONGEST program.

    The other spanner modules simulate centrally with round accounting; this
    one actually runs on {!Ultraspan_congest.Network}, under its enforced
    O(log n)-bit message bound, in O(1) communication rounds per iteration
    (2k + O(1) total — the [BS07] round complexity).

    The one liberty taken: cluster sampling uses {e shared pseudo-randomness}
    — every node evaluates the same hash h(cluster, iteration) drawn from
    {!Ultraspan_util.Hash_family}, so no node ever needs to be told which
    clusters were sampled.  The per-iteration protocol is then purely local:

    + broadcast round — every alive node tells each neighbour its current
      cluster id (dead edges are skipped);
    + decision round — every node in an unsampled cluster picks the first
      sampled adjacent cluster in (weight, edge-id) order, joins it (or
      dies), marks the paper's step-(2) edges as spanner edges, and sends
      "edge died" notices on the edges the paper kills.

    Output is distributed, as the model demands: each node ends up knowing
    which of its incident edges are in the spanner; {!run} collects that
    local knowledge into an edge mask. *)

type outcome = {
  spanner : Spanner.t;
  network_stats : Ultraspan_congest.Network.stats;
      (** real measured rounds/messages of the protocol run *)
}

val run :
  ?trace:Ultraspan_congest.Trace.t ->
  ?metrics:Ultraspan_util.Metrics.t ->
  ?engine:Ultraspan_congest.Network.engine ->
  ?jobs:int ->
  seed:int ->
  k:int ->
  Graph.t ->
  outcome
(** [run ~seed ~k g]: (2k-1)-spanner.  [seed] keys the shared hash family.
    Requires [k >= 1].  [trace] attaches a {!Ultraspan_congest.Trace} sink
    to the protocol run (pure observation); [engine] and [jobs]
    select the simulator message plane and domain budget (see
    {!Ultraspan_congest.Network.engine} and
    {!Ultraspan_congest.Network.run}); [metrics]
    accumulates the simulator's deterministic run counters
    (see {!Ultraspan_congest.Network.run}). *)
