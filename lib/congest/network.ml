open! Import

type inbox = (int * int array) list
type outbox = (int * int array) list
type 'a step = { state : 'a; out : outbox; halt : bool }

type 'a program = {
  init : Graph.t -> int -> 'a;
  round : Graph.t -> round:int -> me:int -> 'a -> inbox -> 'a step;
}

type engine = [ `Fast | `Ref ]
type backend = [ `Seq | `Sharded ]

type stats = {
  rounds : int;
  messages : int;
  max_words : int;
  wakeups : int;
  drops : int;
  crashed_nodes : int;
  severed_links : int;
}

exception Message_too_large of { sender : int; words : int; limit : int }
exception Not_a_neighbor of { sender : int; target : int }
exception Duplicate_message of { sender : int; target : int }
exception Round_limit_exceeded of { limit : int; partial : stats }

module Metrics = Ultraspan_util.Metrics
module Parallel = Ultraspan_util.Parallel

(* Flat payload arena shared by the [`Seq] and [`Sharded] backends of the
   fast engine: one [word_limit]-word region per arc in an off-heap
   Bigarray, plus a per-arc length.  Sending copies the payload words in;
   inbox assembly materializes a fresh [int array] per delivered message.
   Compared to the boxed [int array array] arena this removes the
   2m-pointer array the GC had to trace every major cycle and the
   unbounded retention of stale payloads. *)
type arena = {
  words : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  plen : int array;  (* per-slot payload length *)
  stride : int;  (* = word_limit; slot [a] occupies [a*stride ..) *)
}

let make_arena ~arcs ~word_limit =
  {
    words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (arcs * word_limit);
    plen = Array.make (max 1 arcs) 0;
    stride = word_limit;
  }

let[@inline] arena_write ar slot pl words =
  let b = slot * ar.stride in
  for i = 0 to words - 1 do
    Bigarray.Array1.unsafe_set ar.words (b + i) (Array.unsafe_get pl i)
  done;
  Array.unsafe_set ar.plen slot words

let[@inline] arena_read ar slot =
  let words = Array.unsafe_get ar.plen slot in
  let pl = Array.make words 0 in
  let b = slot * ar.stride in
  for i = 0 to words - 1 do
    Array.unsafe_set pl i (Bigarray.Array1.unsafe_get ar.words (b + i))
  done;
  pl

(* Deterministic metrics, byte-identical across engines (checked by
   test_metrics and the check.sh engine differential).  Engine-internal
   diagnostics — arena occupancy, merge-cursor work, inbox sorts — depend
   on the delivery strategy and are registered under [timing.congest.*],
   the execution namespace excluded from determinism gates. *)
type meters = {
  mon : bool;
  m_deliveries : Metrics.counter;
  m_payload_words : Metrics.counter;
  m_wakeups : Metrics.counter;
  m_drops : Metrics.counter;
  m_rounds : Metrics.counter;
  m_max_payload : Metrics.gauge;
  m_per_round : Metrics.histogram;
}

let meters_of metrics =
  {
    mon = Metrics.live metrics;
    m_deliveries = Metrics.counter metrics "congest.deliveries_total";
    m_payload_words = Metrics.counter metrics "congest.payload_words_total";
    m_wakeups = Metrics.counter metrics "congest.wakeups_total";
    m_drops = Metrics.counter metrics "congest.drops_total";
    m_rounds = Metrics.counter metrics "congest.rounds_total";
    m_max_payload = Metrics.gauge metrics "congest.max_payload_words";
    m_per_round = Metrics.histogram metrics "congest.deliveries_per_round";
  }

(* Both engines share the exact same observable behaviour: same states,
   same stats, same fault-RNG consumption order (node order, then outbox
   order) and same trace-hook call sequence.  The differential test-suite
   (test/test_engine_diff.ml) checks this bit-for-bit. *)

(* ---------- reference engine (the original list-based loop) ---------- *)

let run_ref ~max_rounds ~word_limit ?faults ?trace ~metrics g prog =
  let n = Graph.n g in
  (match faults with Some f -> Faults.start f ~n | None -> ());
  (match trace with Some tr -> Trace.start tr ~n | None -> ());
  let mm = meters_of metrics in
  let m_sorts = Metrics.counter metrics "timing.congest.ref.inbox_sorts" in
  let states = Array.init n (fun v -> prog.init g v) in
  let halted = Array.make n false in
  (* pending.(v): messages to deliver to v next round, as (sender, payload),
     accumulated in reverse. *)
  let pending = Array.make n [] in
  let has_pending = ref true (* round 0 runs everyone *) in
  let rounds = ref 0 in
  let messages = ref 0 in
  let max_words = ref 0 in
  let wakeups = ref 0 in
  let stats_now () =
    let drops, crashed_nodes, severed_links =
      match faults with
      | None -> (0, 0, 0)
      | Some f -> (Faults.drops f, Faults.crashed_nodes f, Faults.severed_links f)
    in
    {
      rounds = !rounds;
      messages = !messages;
      max_words = !max_words;
      wakeups = !wakeups;
      drops;
      crashed_nodes;
      severed_links;
    }
  in
  let all_halted () = Array.for_all (fun h -> h) halted in
  let round_start_msgs = ref 0 in
  while !has_pending || not (all_halted ()) do
    if !rounds >= max_rounds then begin
      Metrics.mark_partial metrics;
      raise (Round_limit_exceeded { limit = max_rounds; partial = stats_now () })
    end;
    round_start_msgs := !messages;
    (match faults with
    | Some f -> Faults.begin_round f ~round:!rounds
    | None -> ());
    (match (trace, faults) with
    | Some tr, Some f ->
        Trace.note_fault_counters tr ~crashed:(Faults.crashed_nodes f)
          ~severed:(Faults.severed_links f)
    | _ -> ());
    (* Collect this round's inboxes and clear pending. *)
    let inboxes =
      Array.map
        (fun msgs ->
          (match msgs with [] -> () | _ -> Metrics.incr m_sorts);
          List.sort compare (List.rev msgs))
        pending
    in
    Array.fill pending 0 n [];
    has_pending := false;
    for v = 0 to n - 1 do
      let inbox = inboxes.(v) in
      match faults with
      | Some f when Faults.is_crashed f v ->
          (* Crash-stop: no step, and in-flight messages to v are lost. *)
          List.iter
            (fun (sender, _) ->
              Faults.drop_in_flight f ~round:!rounds ~sender ~target:v;
              Metrics.incr mm.m_drops;
              match trace with
              | Some tr -> Trace.note_drop tr
              | None -> ())
            inbox;
          halted.(v) <- true
      | _ ->
          if (not halted.(v)) || inbox <> [] then begin
            incr wakeups;
            Metrics.incr mm.m_wakeups;
            (match trace with Some tr -> Trace.note_step tr | None -> ());
            let step = prog.round g ~round:!rounds ~me:v states.(v) inbox in
            states.(v) <- step.state;
            halted.(v) <- step.halt;
            (* Validate and enqueue outgoing messages.  Model violations
               (non-neighbour targets, duplicates, oversized payloads) are
               program bugs and raise even under faults. *)
            let seen_targets = Hashtbl.create 8 in
            List.iter
              (fun (target, payload) ->
                if not (Graph.mem_edge g v target) then
                  raise (Not_a_neighbor { sender = v; target });
                if Hashtbl.mem seen_targets target then
                  raise (Duplicate_message { sender = v; target })
                  (* one message per neighbour per round *);
                Hashtbl.replace seen_targets target ();
                let words = Array.length payload in
                if words > word_limit then
                  raise (Message_too_large { sender = v; words; limit = word_limit });
                if words > !max_words then max_words := words;
                Metrics.set_max mm.m_max_payload words;
                let delivered =
                  match faults with
                  | None -> true
                  | Some f -> Faults.deliver f ~round:!rounds ~sender:v ~target
                in
                if delivered then begin
                  incr messages;
                  Metrics.incr mm.m_deliveries;
                  Metrics.add mm.m_payload_words words;
                  (match trace with
                  | Some tr -> Trace.note_send tr ~sender:v ~target ~words
                  | None -> ());
                  pending.(target) <- (v, payload) :: pending.(target);
                  has_pending := true
                end
                else begin
                  Metrics.incr mm.m_drops;
                  match trace with
                  | Some tr -> Trace.note_drop tr
                  | None -> ()
                end)
              step.out
          end
    done;
    (match trace with
    | Some tr ->
        let halted_now =
          Array.fold_left (fun a h -> if h then a + 1 else a) 0 halted
        in
        Trace.end_round tr ~round:!rounds ~halted:halted_now
    | None -> ());
    if mm.mon then begin
      Metrics.incr mm.m_rounds;
      Metrics.observe mm.m_per_round (!messages - !round_start_msgs)
    end;
    incr rounds
  done;
  (states, stats_now ())

(* ---------- fast engine (CSR slot-based message plane) ----------

   One inbox slot per directed arc of the graph's CSR index: the message
   [s -> t] lands in the arc [t -> s] (found in O(log deg s) by binary
   search on the sender side plus an O(1) reverse-arc hop).  Because a
   sender's slot in its target's inbox is unique, duplicate detection is a
   slot-stamp check (no per-step hash table); because each vertex's arcs
   are sorted by destination, scanning the occupied slots of a receiver
   yields the inbox already sorted by sender (no per-round [List.sort]);
   and because the payload arena and stamps persist across rounds there is
   no per-round O(n) allocation — stamps distinguish rounds by value, so
   nothing is ever cleared.  Halted nodes and in-flight messages are
   tracked by counters, replacing the reference engine's O(n) quiescence
   scan. *)

let run_fast ~max_rounds ~word_limit ?faults ?trace ~metrics g prog =
  let n = Graph.n g in
  (match faults with Some f -> Faults.start f ~n | None -> ());
  (match trace with Some tr -> Trace.start tr ~n | None -> ());
  let mm = meters_of metrics in
  (* Arena/merge-cursor diagnostics are strategy-internal: execution
     namespace.  [arena_slots_touched] counts first touches of send slots,
     i.e. the arena high-water mark.  The two arena counters carry no
     backend in their name: [`Sharded] writes the same family, with the
     same values. *)
  let m_arena_slots =
    Metrics.counter metrics "timing.congest.arena_slots_touched"
  in
  let m_arena_words =
    Metrics.counter metrics "timing.congest.arena_words_written"
  in
  let m_mc_cmp = Metrics.counter metrics "timing.congest.fast.merge_cursor_comparisons" in
  let m_mc_hits = Metrics.counter metrics "timing.congest.fast.merge_cursor_hits" in
  let m_mc_fallbacks =
    Metrics.counter metrics "timing.congest.fast.merge_cursor_fallbacks"
  in
  (* Raw CSR arrays: the loops below run once per message and cannot
     afford a cross-module call per arc. *)
  let { Graph.off; dst; rev; _ } = Graph.csr g in
  let states = Array.init n (fun v -> prog.init g v) in
  let halted = Array.make n false in
  let halted_count = ref 0 in
  let arcs = Graph.arc_count g in
  (* Message plane: flat payload arena + stamps, one slot per arc.  A slot
     is "occupied for round r" iff its stamp equals r; stale stamps from
     earlier rounds never collide because rounds increase strictly. *)
  let arena = make_arena ~arcs ~word_limit in
  let delivered_stamp = Array.make arcs (-1) in
  let sent_stamp = Array.make arcs (-1) in
  (* Receivers with at least one pending message, and their counts. *)
  let in_count = Array.make n 0 in
  let touched = ref [] in
  let inboxes : inbox array = Array.make n [] in
  let pending_msgs = ref 0 in
  let rounds = ref 0 in
  let messages = ref 0 in
  let max_words = ref 0 in
  let wakeups = ref 0 in
  let stats_now () =
    let drops, crashed_nodes, severed_links =
      match faults with
      | None -> (0, 0, 0)
      | Some f -> (Faults.drops f, Faults.crashed_nodes f, Faults.severed_links f)
    in
    {
      rounds = !rounds;
      messages = !messages;
      max_words = !max_words;
      wakeups = !wakeups;
      drops;
      crashed_nodes;
      severed_links;
    }
  in
  let round_start_msgs = ref 0 in
  while !pending_msgs > 0 || !halted_count < n do
    if !rounds >= max_rounds then begin
      Metrics.mark_partial metrics;
      raise (Round_limit_exceeded { limit = max_rounds; partial = stats_now () })
    end;
    round_start_msgs := !messages;
    let r = !rounds in
    (match faults with
    | Some f -> Faults.begin_round f ~round:r
    | None -> ());
    (match (trace, faults) with
    | Some tr, Some f ->
        Trace.note_fault_counters tr ~crashed:(Faults.crashed_nodes f)
          ~severed:(Faults.severed_links f)
    | _ -> ());
    (* Assemble inboxes for every receiver touched last round: scan its
       arc slice backwards, consing the slots stamped r-1 — increasing
       sender order for free, matching the reference engine's sort. *)
    let receivers = !touched in
    touched := [];
    pending_msgs := 0;
    (* Stale words are left in the arena (occupancy is governed by the
       stamps alone); each delivered message materializes as a fresh array
       here, so nothing in the arena is ever reachable from a state. *)
    List.iter
      (fun v ->
        let acc = ref [] in
        for a = off.(v + 1) - 1 downto off.(v) do
          if Array.unsafe_get delivered_stamp a = r - 1 then
            acc := (Array.unsafe_get dst a, arena_read arena a) :: !acc
        done;
        inboxes.(v) <- !acc;
        in_count.(v) <- 0)
      receivers;
    for v = 0 to n - 1 do
      let inbox = inboxes.(v) in
      (match faults with
      | Some f when Faults.is_crashed f v ->
          (* Crash-stop: no step, and in-flight messages to v are lost. *)
          List.iter
            (fun (sender, _) ->
              Faults.drop_in_flight f ~round:r ~sender ~target:v;
              Metrics.incr mm.m_drops;
              match trace with
              | Some tr -> Trace.note_drop tr
              | None -> ())
            inbox;
          if not halted.(v) then begin
            halted.(v) <- true;
            incr halted_count
          end
      | _ ->
          if (not halted.(v)) || inbox <> [] then begin
            incr wakeups;
            Metrics.incr mm.m_wakeups;
            (match trace with Some tr -> Trace.note_step tr | None -> ());
            let step = prog.round g ~round:r ~me:v states.(v) inbox in
            states.(v) <- step.state;
            if halted.(v) <> step.halt then begin
              halted.(v) <- step.halt;
              if step.halt then incr halted_count else decr halted_count
            end;
            (* Validate and deliver into slots.  Same rule order as the
               reference engine: neighbour, duplicate, size, faults.
               Outboxes are usually in adjacency (ascending-target) order,
               so an ascending cursor resolves each target in O(1)
               amortized; out-of-order sends fall back to binary search. *)
            let base = off.(v) and stop = off.(v + 1) in
            let cursor = ref base in
            List.iter
              (fun (target, pl) ->
                let arc =
                  let c0 = !cursor in
                  let c = ref c0 in
                  while !c < stop && Array.unsafe_get dst !c < target do
                    incr c
                  done;
                  if mm.mon then Metrics.add m_mc_cmp (!c - c0 + 1);
                  if !c < stop && Array.unsafe_get dst !c = target then begin
                    Metrics.incr m_mc_hits;
                    cursor := !c + 1;
                    !c
                  end
                  else begin
                    Metrics.incr m_mc_fallbacks;
                    let lo = ref base and hi = ref (stop - 1) in
                    let res = ref (-1) in
                    while !res < 0 && !lo <= !hi do
                      let mid = (!lo + !hi) lsr 1 in
                      let d = Array.unsafe_get dst mid in
                      if d = target then res := mid
                      else if d < target then lo := mid + 1
                      else hi := mid - 1
                    done;
                    !res
                  end
                in
                if arc < 0 then raise (Not_a_neighbor { sender = v; target });
                let slot = Array.unsafe_get rev arc in
                if Array.unsafe_get sent_stamp slot = r then
                  raise (Duplicate_message { sender = v; target })
                  (* one message per neighbour per round *);
                if mm.mon && Array.unsafe_get sent_stamp slot < 0 then
                  Metrics.incr m_arena_slots;
                Array.unsafe_set sent_stamp slot r;
                let words = Array.length pl in
                if words > word_limit then
                  raise (Message_too_large { sender = v; words; limit = word_limit });
                if words > !max_words then max_words := words;
                Metrics.set_max mm.m_max_payload words;
                let delivered =
                  match faults with
                  | None -> true
                  | Some f -> Faults.deliver f ~round:r ~sender:v ~target
                in
                if delivered then begin
                  incr messages;
                  Metrics.incr mm.m_deliveries;
                  Metrics.add mm.m_payload_words words;
                  Metrics.add m_arena_words words;
                  (match trace with
                  | Some tr -> Trace.note_send tr ~sender:v ~target ~words
                  | None -> ());
                  arena_write arena slot pl words;
                  Array.unsafe_set delivered_stamp slot r;
                  let c = Array.unsafe_get in_count target in
                  if c = 0 then touched := target :: !touched;
                  Array.unsafe_set in_count target (c + 1);
                  incr pending_msgs
                end
                else begin
                  Metrics.incr mm.m_drops;
                  match trace with
                  | Some tr -> Trace.note_drop tr
                  | None -> ()
                end)
              step.out
          end);
      (match inbox with [] -> () | _ -> inboxes.(v) <- [])
    done;
    (match trace with
    | Some tr -> Trace.end_round tr ~round:r ~halted:!halted_count
    | None -> ());
    if mm.mon then begin
      Metrics.incr mm.m_rounds;
      Metrics.observe mm.m_per_round (!messages - !round_start_msgs)
    end;
    incr rounds
  done;
  (states, stats_now ())

(* ---------- sharded backend (parallel two-phase delivery) ----------

   The node range is cut into [Parallel.block_count n] shards — a fixed
   function of [n], never of the job count — and each round runs as two
   pool sections with a barrier between them:

   phase 1 (assembly): every shard scans its receivers' dirty flags and
   materializes inboxes from the slots stamped last round.  Writes are
   per-receiver, reads are arena slots written last round — the previous
   barrier ordered them.

   phase 2 (step + send): every shard steps its senders and delivers into
   the arena.  A slot is written only by its unique sender, so the only
   cross-shard writes are the receiver dirty flags — racy same-value byte
   stores whose reads all happen after the next barrier.

   Determinism: shard s covers the node range [n*s/k, n*(s+1)/k), nodes
   are stepped in increasing order within a shard, and every observable —
   stats, deterministic metrics, a model-violation exception — is either
   per-node state or folded on the caller in shard-index order, which is
   node order.  So the backend is byte-identical to [`Seq] for any job
   count.  Fault injection consumes its RNG in (node, outbox) order and
   trace hooks record one global sequence: both are order-sensitive, so
   with [?faults] or [?trace] attached phase 2 runs sequentially on the
   caller (assembly stays parallel), preserving exact event order. *)

type shard_acc = {
  mutable a_msgs : int;  (* messages delivered by this shard's senders *)
  mutable a_words : int;  (* their summed payload words *)
  mutable a_wake : int;
  mutable a_maxw : int;
  mutable a_halt : int;  (* halted-count delta *)
  mutable a_slots : int;  (* arena slot first-touches *)
  mutable a_viol : exn option;  (* first violation in (node, outbox) order *)
}

let run_sharded ~max_rounds ~word_limit ?faults ?trace ~metrics ?jobs g prog =
  let n = Graph.n g in
  (match faults with Some f -> Faults.start f ~n | None -> ());
  (match trace with Some tr -> Trace.start tr ~n | None -> ());
  let mm = meters_of metrics in
  let m_arena_slots =
    Metrics.counter metrics "timing.congest.arena_slots_touched"
  in
  let m_arena_words =
    Metrics.counter metrics "timing.congest.arena_words_written"
  in
  let m_par_rounds =
    Metrics.counter metrics "timing.congest.sharded.parallel_step_rounds"
  in
  let m_seq_rounds =
    Metrics.counter metrics "timing.congest.sharded.sequential_step_rounds"
  in
  let seq_step = Option.is_some faults || Option.is_some trace in
  let { Graph.off; dst; rev; _ } = Graph.csr g in
  let states = Array.init n (fun v -> prog.init g v) in
  let halted = Array.make n false in
  let halted_count = ref 0 in
  let arcs = Graph.arc_count g in
  let arena = make_arena ~arcs ~word_limit in
  let delivered_stamp = Array.make (max 1 arcs) (-1) in
  let sent_stamp = Array.make (max 1 arcs) (-1) in
  let dirty = Bytes.make (max 1 n) '\000' in
  let inboxes : inbox array = Array.make n [] in
  let nshards = Parallel.block_count n in
  let accs =
    Array.init nshards (fun _ ->
        {
          a_msgs = 0;
          a_words = 0;
          a_wake = 0;
          a_maxw = 0;
          a_halt = 0;
          a_slots = 0;
          a_viol = None;
        })
  in
  let pending_msgs = ref 0 in
  let rounds = ref 0 in
  let messages = ref 0 in
  let max_words = ref 0 in
  let wakeups = ref 0 in
  let stats_now () =
    let drops, crashed_nodes, severed_links =
      match faults with
      | None -> (0, 0, 0)
      | Some f -> (Faults.drops f, Faults.crashed_nodes f, Faults.severed_links f)
    in
    {
      rounds = !rounds;
      messages = !messages;
      max_words = !max_words;
      wakeups = !wakeups;
      drops;
      crashed_nodes;
      severed_links;
    }
  in
  (* Arc of [v -> target], by ascending cursor with binary-search fallback
     (same resolution strategy as the fast engine, uncounted). *)
  let find_arc ~base ~stop cursor target =
    let c = ref !cursor in
    while !c < stop && Array.unsafe_get dst !c < target do
      incr c
    done;
    if !c < stop && Array.unsafe_get dst !c = target then begin
      cursor := !c + 1;
      !c
    end
    else begin
      let lo = ref base and hi = ref (stop - 1) in
      let res = ref (-1) in
      while !res < 0 && !lo <= !hi do
        let mid = (!lo + !hi) lsr 1 in
        let d = Array.unsafe_get dst mid in
        if d = target then res := mid
        else if d < target then lo := mid + 1
        else hi := mid - 1
      done;
      !res
    end
  in
  let round_start_msgs = ref 0 in
  while !pending_msgs > 0 || !halted_count < n do
    if !rounds >= max_rounds then begin
      Metrics.mark_partial metrics;
      raise (Round_limit_exceeded { limit = max_rounds; partial = stats_now () })
    end;
    round_start_msgs := !messages;
    let r = !rounds in
    (match faults with
    | Some f -> Faults.begin_round f ~round:r
    | None -> ());
    (match (trace, faults) with
    | Some tr, Some f ->
        Trace.note_fault_counters tr ~crashed:(Faults.crashed_nodes f)
          ~severed:(Faults.severed_links f)
    | _ -> ());
    (* Phase 1: assemble inboxes of the receivers flagged dirty last round.
       Scanning the arc slice backwards conses ascending sender order. *)
    pending_msgs := 0;
    Parallel.iter_blocks ?jobs n (fun _ lo hi ->
        for v = lo to hi - 1 do
          if Bytes.unsafe_get dirty v <> '\000' then begin
            Bytes.unsafe_set dirty v '\000';
            let acc = ref [] in
            for a = off.(v + 1) - 1 downto off.(v) do
              if Array.unsafe_get delivered_stamp a = r - 1 then
                acc := (Array.unsafe_get dst a, arena_read arena a) :: !acc
            done;
            inboxes.(v) <- !acc
          end
        done);
    (* Phase 2: step and deliver. *)
    if seq_step then begin
      Metrics.incr m_seq_rounds;
      for v = 0 to n - 1 do
        let inbox = inboxes.(v) in
        (match faults with
        | Some f when Faults.is_crashed f v ->
            (* Crash-stop: no step, and in-flight messages to v are lost. *)
            List.iter
              (fun (sender, _) ->
                Faults.drop_in_flight f ~round:r ~sender ~target:v;
                Metrics.incr mm.m_drops;
                match trace with
                | Some tr -> Trace.note_drop tr
                | None -> ())
              inbox;
            if not halted.(v) then begin
              halted.(v) <- true;
              incr halted_count
            end
        | _ ->
            if (not halted.(v)) || inbox <> [] then begin
              incr wakeups;
              Metrics.incr mm.m_wakeups;
              (match trace with Some tr -> Trace.note_step tr | None -> ());
              let step = prog.round g ~round:r ~me:v states.(v) inbox in
              states.(v) <- step.state;
              if halted.(v) <> step.halt then begin
                halted.(v) <- step.halt;
                if step.halt then incr halted_count else decr halted_count
              end;
              let base = off.(v) and stop = off.(v + 1) in
              let cursor = ref base in
              List.iter
                (fun (target, pl) ->
                  let arc = find_arc ~base ~stop cursor target in
                  if arc < 0 then raise (Not_a_neighbor { sender = v; target });
                  let slot = Array.unsafe_get rev arc in
                  if Array.unsafe_get sent_stamp slot = r then
                    raise (Duplicate_message { sender = v; target })
                    (* one message per neighbour per round *);
                  if mm.mon && Array.unsafe_get sent_stamp slot < 0 then
                    Metrics.incr m_arena_slots;
                  Array.unsafe_set sent_stamp slot r;
                  let words = Array.length pl in
                  if words > word_limit then
                    raise
                      (Message_too_large { sender = v; words; limit = word_limit });
                  if words > !max_words then max_words := words;
                  Metrics.set_max mm.m_max_payload words;
                  let delivered =
                    match faults with
                    | None -> true
                    | Some f -> Faults.deliver f ~round:r ~sender:v ~target
                  in
                  if delivered then begin
                    incr messages;
                    Metrics.incr mm.m_deliveries;
                    Metrics.add mm.m_payload_words words;
                    Metrics.add m_arena_words words;
                    (match trace with
                    | Some tr -> Trace.note_send tr ~sender:v ~target ~words
                    | None -> ());
                    arena_write arena slot pl words;
                    Array.unsafe_set delivered_stamp slot r;
                    Bytes.unsafe_set dirty target '\001';
                    incr pending_msgs
                  end
                  else begin
                    Metrics.incr mm.m_drops;
                    match trace with
                    | Some tr -> Trace.note_drop tr
                    | None -> ()
                  end)
                step.out
            end);
        match inbox with [] -> () | _ -> inboxes.(v) <- []
      done
    end
    else begin
      Metrics.incr m_par_rounds;
      Parallel.iter_blocks ?jobs n (fun s lo hi ->
          let acc = accs.(s) in
          let v = ref lo in
          while acc.a_viol = None && !v < hi do
            let me = !v in
            let inbox = inboxes.(me) in
            if (not (Array.unsafe_get halted me)) || inbox <> [] then begin
              acc.a_wake <- acc.a_wake + 1;
              let step = prog.round g ~round:r ~me states.(me) inbox in
              states.(me) <- step.state;
              if halted.(me) <> step.halt then begin
                halted.(me) <- step.halt;
                acc.a_halt <- acc.a_halt + (if step.halt then 1 else -1)
              end;
              let base = off.(me) and stop = off.(me + 1) in
              let cursor = ref base in
              try
                List.iter
                  (fun (target, pl) ->
                    let arc = find_arc ~base ~stop cursor target in
                    if arc < 0 then
                      raise (Not_a_neighbor { sender = me; target });
                    let slot = Array.unsafe_get rev arc in
                    if Array.unsafe_get sent_stamp slot = r then
                      raise (Duplicate_message { sender = me; target })
                      (* one message per neighbour per round *);
                    if Array.unsafe_get sent_stamp slot < 0 then
                      acc.a_slots <- acc.a_slots + 1;
                    Array.unsafe_set sent_stamp slot r;
                    let words = Array.length pl in
                    if words > word_limit then
                      raise
                        (Message_too_large
                           { sender = me; words; limit = word_limit });
                    if words > acc.a_maxw then acc.a_maxw <- words;
                    arena_write arena slot pl words;
                    Array.unsafe_set delivered_stamp slot r;
                    Bytes.unsafe_set dirty target '\001';
                    acc.a_msgs <- acc.a_msgs + 1;
                    acc.a_words <- acc.a_words + words)
                  step.out
              with
              | (Message_too_large _ | Not_a_neighbor _ | Duplicate_message _)
                as e ->
                acc.a_viol <- Some e
            end;
            (match inbox with [] -> () | _ -> inboxes.(me) <- []);
            incr v
          done);
      (* Fold the shard accumulators in shard-index (= node) order.  On a
         violation, shards past the violating one are discarded, so the
         registry and the raised exception match the sequential engine's
         byte-for-byte (it would never have reached those nodes). *)
      let viol = ref None in
      let s = ref 0 in
      while !viol = None && !s < nshards do
        let a = accs.(!s) in
        messages := !messages + a.a_msgs;
        wakeups := !wakeups + a.a_wake;
        if a.a_maxw > !max_words then max_words := a.a_maxw;
        halted_count := !halted_count + a.a_halt;
        pending_msgs := !pending_msgs + a.a_msgs;
        if mm.mon then begin
          Metrics.add mm.m_deliveries a.a_msgs;
          Metrics.add mm.m_payload_words a.a_words;
          Metrics.add mm.m_wakeups a.a_wake;
          if a.a_maxw > 0 then Metrics.set_max mm.m_max_payload a.a_maxw;
          Metrics.add m_arena_slots a.a_slots;
          Metrics.add m_arena_words a.a_words
        end;
        viol := a.a_viol;
        a.a_msgs <- 0;
        a.a_words <- 0;
        a.a_wake <- 0;
        a.a_maxw <- 0;
        a.a_halt <- 0;
        a.a_slots <- 0;
        a.a_viol <- None;
        incr s
      done;
      match !viol with
      | Some e ->
          Metrics.mark_partial metrics;
          raise e
      | None -> ()
    end;
    (match trace with
    | Some tr -> Trace.end_round tr ~round:r ~halted:!halted_count
    | None -> ());
    if mm.mon then begin
      Metrics.incr mm.m_rounds;
      Metrics.observe mm.m_per_round (!messages - !round_start_msgs)
    end;
    incr rounds
  done;
  (states, stats_now ())

let run ?max_rounds ?(word_limit = 4) ?faults ?trace
    ?(metrics = Metrics.disabled) ?(engine = `Fast) ?backend ?jobs g prog =
  let n = Graph.n g in
  let max_rounds = match max_rounds with Some r -> r | None -> 100 * (n + 1) in
  let backend =
    match (backend, engine) with
    | Some `Sharded, `Ref ->
        invalid_arg "Network.run: the ref engine has no sharded delivery backend"
    | Some b, _ -> b
    | None, `Fast when Parallel.available_cores () > 1 -> `Sharded
    | None, _ -> `Seq
  in
  match (engine, backend) with
  | `Ref, _ -> run_ref ~max_rounds ~word_limit ?faults ?trace ~metrics g prog
  | `Fast, `Seq -> run_fast ~max_rounds ~word_limit ?faults ?trace ~metrics g prog
  | `Fast, `Sharded ->
      run_sharded ~max_rounds ~word_limit ?faults ?trace ~metrics ?jobs g prog
