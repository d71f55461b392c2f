open! Import

(** Synchronous CONGEST-model network simulator.

    The network is the input graph: one node per vertex, communication only
    along edges, proceeding in synchronous rounds.  Per round every node may
    send one bounded-size message to each neighbour (the CONGEST bandwidth
    constraint); the simulator *enforces* the bound and records round and
    message statistics.

    Node behaviour is given as a {!program}: an initial state and a round
    function mapping (state, inbox) to (state, outbox, halt?).  A halted
    node is skipped until a message arrives, which wakes it.  The run ends
    when every node is halted and no messages are in flight, or when
    [max_rounds] is hit (an error by default, since every algorithm in this
    library has a proven round bound).

    Runs may optionally be subjected to a deterministic fault schedule
    ({!Faults}): crash-stop node failures, permanent link failures and
    probabilistic message drops.  Without a [?faults] injector the simulator
    is perfectly reliable and behaves exactly as before the fault layer
    existed (tested bit-for-bit against the empty plan). *)

type inbox = (int * int array) list
(** [(sender_vertex, payload)] for each message received this round,
    in increasing sender order (deterministic). *)

type outbox = (int * int array) list
(** [(neighbour_vertex, payload)]: destinations must be neighbours; at most
    one message per neighbour per round. *)

type 'a step = { state : 'a; out : outbox; halt : bool }

type 'a program = {
  init : Graph.t -> int -> 'a;
      (** Initial state of each vertex.  A node only knows [n], its own id
          and its incident edges — programs honouring the model must not
          inspect the rest of the graph (this is by convention; the full
          graph is passed for convenience of address arithmetic). *)
  round : Graph.t -> round:int -> me:int -> 'a -> inbox -> 'a step;
}

type engine = [ `Fast | `Ref ]
(** Message-plane implementation.  [`Fast] (the default) delivers messages
    into preallocated per-arc slots of the graph's CSR index: duplicate
    detection is a slot-stamp check, inboxes come out sorted by sender for
    free (adjacency slices are sorted), and payloads live in a flat
    off-heap arena (one [word_limit]-word region per arc) instead of a
    boxed array the GC would trace.  Each round runs as two
    barrier-separated pool sections — inbox assembly, then
    step-and-deliver — over a fixed set of node shards
    ({!Ultraspan_util.Parallel.block_count}, a function of [n] alone),
    fanned across the deterministic domain pool; per-shard accumulators
    are folded on the caller in shard-index (= node) order.  [`Ref] is the
    original list-based loop, kept as a reference oracle; both engines are
    observably identical — states, stats, deterministic metrics, fault
    events, traces and model-violation exceptions match bit-for-bit, for
    every job count (enforced by the differential test suite). *)

type stats = {
  rounds : int;  (** rounds executed *)
  messages : int;  (** total messages delivered (dropped ones excluded) *)
  max_words : int;  (** largest message sent, in words *)
  wakeups : int;  (** total node activations *)
  drops : int;  (** messages lost to faults (0 without an injector) *)
  crashed_nodes : int;  (** crash-stop failures applied *)
  severed_links : int;  (** permanent link failures applied *)
}

exception Message_too_large of { sender : int; words : int; limit : int }

exception Not_a_neighbor of { sender : int; target : int }
(** Raised when a message targets a vertex that is not adjacent to the
    sender. *)

exception Duplicate_message of { sender : int; target : int }
(** Raised when a node sends two messages to the same neighbour in one
    round (the CONGEST bandwidth constraint allows exactly one). *)

exception Round_limit_exceeded of { limit : int; partial : stats }
(** The run hit [max_rounds].  [partial] carries the statistics observed up
    to that point so a diverging (or fault-starved) run is diagnosable. *)

val run :
  ?max_rounds:int ->
  ?word_limit:int ->
  ?faults:Faults.t ->
  ?trace:Trace.t ->
  ?metrics:Ultraspan_util.Metrics.t ->
  ?engine:engine ->
  ?jobs:int ->
  Graph.t ->
  'a program ->
  'a array * stats
(** Execute to quiescence.  [word_limit] is the per-message size cap in
    words of O(log n) bits (default 4: a constant number of ids/weights,
    the usual CONGEST convention).  [max_rounds] defaults to [100 * (n+1)].
    [engine] selects the message-plane implementation (default [`Fast];
    see {!type-engine}).

    [jobs] bounds the domains the [`Fast] engine's shards use (default:
    {!Ultraspan_util.Parallel.default_jobs}; the [`Ref] engine ignores
    it); it never affects results, only wall-clock.  Fault injection and
    trace hooks are order-sensitive, so with [?faults] or [?trace]
    attached the step-and-deliver section runs at one job: shards in node
    order on the caller, stopping at the first model violation.  When a
    run raises a model violation, the registry reflects only the shards
    at or before the violating one — exactly what a node-order run would
    have recorded.

    [faults] subjects the run to a fault schedule (see {!Faults} for the
    exact semantics); the injector must be fresh, and afterwards
    [Faults.events] holds the chronological log of what was injected.
    Crashed nodes count as halted for termination purposes, so a program
    that would wait forever for a lost message ends with
    {!Round_limit_exceeded} — whose [partial] stats include the fault
    counters.

    [trace] attaches a fresh {!Trace} sink recording per-round, per-node
    and per-edge behaviour.  Tracing is pure observation: a run with a sink
    computes exactly the same states and stats as one without (tested
    bit-for-bit), and with no sink every trace hook is a no-op.

    [metrics] registers run counters in a {!Ultraspan_util.Metrics}
    registry (default: the disabled no-op sink).  Deterministic metrics
    ([congest.deliveries_total], [congest.payload_words_total],
    [congest.wakeups_total], [congest.drops_total], [congest.rounds_total],
    the [congest.max_payload_words] gauge and the
    [congest.deliveries_per_round] histogram) are identical across engines
    and accumulate across runs sharing the registry.  Engine-internal
    diagnostics (arena occupancy, parallel/sequential step rounds, inbox
    sorts) live under [timing.congest.*], the execution namespace excluded
    from determinism gates.  On {!Round_limit_exceeded} or a model
    violation the registry is flagged partial, on both engines, and keeps
    every counter recorded so far — matching how [partial] stats stay
    available. *)
