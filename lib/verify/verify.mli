open! Import

(** Front door of the verification plane.

    One call verifies an artifact in one of three modes:

    - [Local] — build the witness ({!Witness}) and run the CONGEST
      checker program ({!Checkers}) on the simulator: every node outputs
      an accept/reject bit from its own state and O(k) rounds of
      neighbour messages; the verdict is the global AND.
    - [Exact] — the centralized ground-truth checkers (stretch /
      connectivity / certificate), global and exact but O(nm)-ish.
    - [Probe] — the sublinear ε-far connectivity spot-check
      ({!Eps_far}): constant query budget, one-sided error.

    {!matrix} is the corruption-detection differential used by the CI
    [verify] job: it builds valid artifacts, checks they are accepted,
    then applies seeded corruptions (dropped spanner edges, truncated or
    detached detours, erased witnesses, dropped forest arcs, flipped
    forest labels, corrupted depth/root labels) and checks every one is
    rejected.  Its output is canonical text: byte-identical across
    engines and job counts (the simulator's determinism
    contract), which CI enforces with [cmp]. *)

type mode = Local | Exact | Probe

val mode_of_string : string -> (mode, string) result
(** ["local" | "exact" | "probe"]. *)

val mode_name : mode -> string

type verdict = {
  target : string;  (** ["spanner"] or ["certificate"] *)
  mode : mode;
  ok : bool;
  rejects : int;  (** rejecting nodes ([Local]) *)
  rounds : int;  (** checker rounds ([Local]; 0 otherwise) *)
  messages : int;
  max_words : int;
  queries : int;  (** vertex + edge queries ([Probe]; 0 otherwise) *)
  note : string;  (** diagnostic detail, [""] when clean *)
}

val pp_verdict : Format.formatter -> verdict -> unit
(** Canonical one-line rendering (deterministic; used by the CLI and the
    matrix transcript). *)

val spanner :
  ?engine:Network.engine ->
  ?jobs:int ->
  ?seed:int ->
  ?epsilon:float ->
  mode:mode ->
  k:int ->
  Graph.t ->
  Spanner.t ->
  verdict
(** Verify a claimed [(2k-1)]-spanner.  [Local] checks spanning-ness and
    stretch from detour witnesses; [Exact] runs {!Spanner.validate};
    [Probe] spot-checks the kept subgraph for connectivity ([seed]
    defaults to 1, [epsilon] to 0.1; stretch is out of a probe's reach). *)

val certificate :
  ?engine:Network.engine ->
  ?jobs:int ->
  ?seed:int ->
  ?epsilon:float ->
  mode:mode ->
  Graph.t ->
  Certificate.t ->
  verdict
(** Verify a k-connectivity certificate ([k] from the artifact).  [Local]
    checks the forest-peeling witness; when no witness exists (the
    certificate is not a graph peeling — see {!Witness.certificate}) it
    falls back to the exact checker and says so in [note]. *)

val matrix :
  ?engine:Network.engine ->
  ?jobs:int ->
  seed:int ->
  quick:bool ->
  Format.formatter ->
  bool
(** Run the corruption-detection matrix, printing the canonical
    transcript; [true] iff every valid artifact was accepted and every
    corruption rejected. *)
