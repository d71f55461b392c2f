open Ultraspan
open Helpers

(* Differential tests for the two simulator engines: the CSR slot-based
   [`Fast] message plane must be observably identical to the [`Ref]
   list-based oracle — states, stats, fault-event logs and exported trace
   JSONL, byte for byte. *)

(* ---------- a family of random-but-deterministic programs ----------

   Keyed by [seed]: every node sends to a pseudo-random subset of its
   neighbours with pseudo-random payloads (1-4 words) while [round < cap],
   and halts pseudo-randomly (woken nodes re-halt at [round >= cap], so
   every run quiesces). *)

let random_program ~seed ~cap =
  let h a b c =
    Rng.bits (Rng.create ((seed * 1_000_003) + (a * 8191) + (b * 131) + c))
  in
  {
    Network.init = (fun _ v -> v land 0xff);
    round =
      (fun g ~round ~me st inbox ->
        let absorbed =
          List.fold_left
            (fun acc (s, p) -> acc + s + Array.fold_left ( + ) 0 p)
            st inbox
        in
        if round >= cap then { Network.state = absorbed; out = []; halt = true }
        else begin
          let out =
            List.rev
              (Graph.fold_adj g me
                 (fun acc u _ ->
                   let r = h me u round in
                   if r land 3 = 0 then acc
                   else begin
                     let words = 1 + (r lsr 2) mod 4 in
                     let payload =
                       Array.init words (fun i -> h u me (round + i) land 0xffff)
                     in
                     (u, payload) :: acc
                   end)
                 [])
          in
          let halt = h me 17 round land 7 < 3 in
          { Network.state = absorbed; out; halt }
        end);
  }

let cap_of_seed seed = 2 + (abs seed mod 7)

(* Run under one engine with a fresh trace sink (and optionally a fresh
   injector built from [plan]); return everything observable. *)
let observe ~engine ?plan g prog =
  let faults = Option.map Faults.make plan in
  let tr = Trace.create g in
  let states, stats = Network.run ?faults ~trace:tr ~engine g prog in
  let events = match faults with Some f -> Faults.events f | None -> [] in
  (states, stats, events, Trace.to_jsonl tr)

let engines_agree ?plan g prog =
  observe ~engine:`Fast ?plan g prog = observe ~engine:`Ref ?plan g prog

let mixed_plan_of_seed g seed =
  let rng = Rng.create (succ (abs seed)) in
  let n = Graph.n g in
  Faults.empty
  |> Faults.with_drops ~seed 0.2
  |> Faults.random_crashes ~rng ~n ~within:5 ~count:(min 3 (n - 1))
  |> Faults.random_link_failures ~rng g ~within:5 ~count:(min 4 (Graph.m g))

(* ---------- qcheck properties ---------- *)

let random_programs_fault_free =
  qcheck ~count:60 "random programs: engines identical (fault-free)" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      engines_agree g (random_program ~seed ~cap:(cap_of_seed seed)))

let random_programs_under_faults =
  qcheck ~count:60 "random programs: engines identical (mixed faults)"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let plan = mixed_plan_of_seed g seed in
      engines_agree ~plan g (random_program ~seed ~cap:(cap_of_seed seed)))

let native_protocols_agree =
  qcheck ~count:25 "native protocols: engines identical" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:50 seed in
      let u = Graph.with_unit_weights g in
      let both run = run `Fast = run `Ref in
      let traced run engine =
        let tr = Trace.create g in
        let out = run ~trace:tr ~engine in
        (out, Trace.to_jsonl tr)
      in
      both (traced (fun ~trace ~engine -> Programs.bfs ~trace ~engine u ~root:0))
      && both
           (traced (fun ~trace ~engine ->
                let values = Array.init (Graph.n g) (fun v -> (v * 37) mod 101) in
                Programs.broadcast_max ~trace ~engine u ~values))
      && both
           (traced (fun ~trace ~engine ->
                Programs.maximal_matching ~trace ~engine u))
      && both
           (traced (fun ~trace ~engine ->
                Programs.luby_mis ~trace ~engine ~seed u))
      && both
           (traced (fun ~trace ~engine ->
                Programs.bellman_ford ~trace ~engine g ~source:0))
      && both
           (traced (fun ~trace ~engine -> Programs.spanning_forest ~trace ~engine g)))

let bfs_under_faults_agrees =
  qcheck ~count:25 "faulty BFS: engines identical incl. fault events" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let plan = mixed_plan_of_seed g seed in
      let run engine =
        let f = Faults.make plan in
        let tr = Trace.create g in
        let out = Programs.bfs ~faults:f ~trace:tr ~engine g ~root:0 in
        (out, Faults.events f, Trace.to_jsonl tr)
      in
      run `Fast = run `Ref)

let bs_distributed_agrees =
  qcheck ~count:15 "distributed Baswana-Sen: engines identical" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let run engine =
        let tr = Trace.create g in
        let o = Bs_distributed.run ~trace:tr ~engine ~seed ~k:3 g in
        ( o.Bs_distributed.spanner.Spanner.keep,
          o.Bs_distributed.network_stats,
          Trace.to_jsonl tr )
      in
      run `Fast = run `Ref)

(* ---------- model-violation and limit behaviour ---------- *)

let violations_agree () =
  let g = Generators.path 3 in
  let raises prog =
    let attempt engine =
      match Network.run ~engine g prog with
      | _ -> None
      | exception Network.Not_a_neighbor { sender; target } ->
          Some (`Nn (sender, target))
      | exception Network.Duplicate_message { sender; target } ->
          Some (`Dup (sender, target))
      | exception Network.Message_too_large { sender; words; limit } ->
          Some (`Big (sender, words, limit))
    in
    let f = attempt `Fast and r = attempt `Ref in
    Alcotest.(check bool) "violation parity" true (f = r && f <> None)
  in
  let once out =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me:_ () _ ->
          { Network.state = (); out = (if round = 0 then out else []); halt = true });
    }
  in
  (* vertex 0's only neighbour is 1: vertex 2 is not adjacent *)
  raises
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me () _ ->
          let out = if round = 0 && me = 0 then [ (2, [| 0 |]) ] else [] in
          { Network.state = (); out; halt = true });
    };
  raises (once [ (1, [| 0 |]); (1, [| 1 |]) ]);
  raises (once [ (1, [| 0; 0; 0; 0; 0 |]) ])

let round_limit_agrees () =
  (* An infinite ping-pong on an edge: both engines must trip the limit
     with identical partial stats. *)
  let g = Generators.path 2 in
  let prog =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round:_ ~me () _ ->
          let out = Graph.fold_adj g me (fun acc u _ -> (u, [| 1 |]) :: acc) [] in
          { Network.state = (); out; halt = false });
    }
  in
  let partial engine =
    match Network.run ~max_rounds:5 ~engine g prog with
    | _ -> None
    | exception Network.Round_limit_exceeded { limit; partial } ->
        Some (limit, partial)
  in
  let f = partial `Fast and r = partial `Ref in
  Alcotest.(check bool) "limit parity" true (f = r && f <> None)

(* ---------- sharded delivery differential ----------

   The [`Fast] engine's sharded round delivery must be byte-identical to
   the [`Ref] oracle for every job count — bare (parallel step phase),
   traced and faulted (step phase at one job, assembly stays parallel),
   and on model-violation / round-limit paths. *)

let observe_jobs ~engine ~jobs ?plan g prog =
  let faults = Option.map Faults.make plan in
  let tr = Trace.create g in
  let states, stats = Network.run ?faults ~trace:tr ~engine ~jobs g prog in
  let events = match faults with Some f -> Faults.events f | None -> [] in
  (states, stats, events, Trace.to_jsonl tr)

let sharded_bare =
  qcheck ~count:60 "random programs: sharded == ref (bare, jobs 1/4)" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let prog = random_program ~seed ~cap:(cap_of_seed seed) in
      let ref_ = Network.run ~engine:`Ref g prog in
      Network.run ~jobs:1 g prog = ref_ && Network.run ~jobs:4 g prog = ref_)

let sharded_traced_faulted =
  qcheck ~count:40
    "random programs: sharded == ref (trace + mixed faults, jobs 1/4)"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let prog = random_program ~seed ~cap:(cap_of_seed seed) in
      let plan = mixed_plan_of_seed g seed in
      let ref_ = observe_jobs ~engine:`Ref ~jobs:1 ~plan g prog in
      observe_jobs ~engine:`Fast ~jobs:1 ~plan g prog = ref_
      && observe_jobs ~engine:`Fast ~jobs:4 ~plan g prog = ref_)

let sharded_metrics_jobs_invariant =
  qcheck ~count:15
    "random programs: sharded deterministic metrics == ref (stripped)"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let prog = random_program ~seed ~cap:(cap_of_seed seed) in
      let exposition engine jobs =
        let r = Metrics.create () in
        let _ = Network.run ~metrics:r ~engine ~jobs g prog in
        Metrics.exposition ~strip:true (Metrics.snapshot r)
      in
      let ref_ = exposition `Ref 1 in
      exposition `Fast 1 = ref_ && exposition `Fast 4 = ref_)

let violation_of = function
  | Network.Not_a_neighbor { sender; target } -> Some (`Nn (sender, target))
  | Network.Duplicate_message { sender; target } -> Some (`Dup (sender, target))
  | Network.Message_too_large { sender; words; limit } ->
      Some (`Big (sender, words, limit))
  | e -> raise e

let sharded_violations_agree () =
  (* Violators placed mid-range so shard-ordered selection is exercised:
     on a 50-path the reference engine reaches node 10 first — the
     sharded delivery must raise node 10's violation too, for any jobs. *)
  let g = Generators.path 50 in
  let raises prog =
    let attempt engine jobs =
      match Network.run ~engine ~jobs g prog with
      | _ -> None
      | exception e -> violation_of e
    in
    let ref_ = attempt `Ref 1 in
    Alcotest.(check bool) "sharded violation parity" true
      (ref_ <> None && attempt `Fast 1 = ref_ && attempt `Fast 4 = ref_)
  in
  let offender me out =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me:v () _ ->
          let out = if round = 0 && v = me then out else [] in
          { Network.state = (); out; halt = true });
    }
  in
  (* two violators in different shards: lowest node must win *)
  let two =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me () _ ->
          let out =
            if round = 0 && (me = 10 || me = 40) then [ (0, [| 0 |]) ] else []
          in
          { Network.state = (); out; halt = true });
    }
  in
  raises (offender 30 [ (0, [| 7 |]) ]);
  raises (offender 30 [ (31, [| 0 |]); (31, [| 1 |]) ]);
  raises (offender 30 [ (31, [| 0; 0; 0; 0; 0 |]) ]);
  raises two

let sharded_violations_under_hooks () =
  (* Faults and a trace attached, and two nodes in different shards of a
     200-cycle commit model violations in round 2, after every node has
     flooded its neighbours for two rounds under drops and crashes (node
     100 crashes at the start of round 2, so its in-flight messages would
     be dropped after the violation if a later shard ever ran).  The
     fault log, the trace JSONL up to the violation and the exception
     must be the reference engine's: the step phase runs at one job, and
     the first violation stops every later shard before it draws fault
     randomness or records a trace event. *)
  let g = Generators.cycle 200 in
  let prog =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me () _ ->
          let out =
            if round = 2 && me = 50 then [ (52, [| 0 |]) ]
            else if round = 2 && me = 150 then [ (149, [| 1 |]); (149, [| 2 |]) ]
            else if round < 3 then
              Graph.fold_adj g me (fun acc u _ -> (u, [| me |]) :: acc) []
              |> List.rev
            else []
          in
          { Network.state = (); out; halt = round >= 3 });
    }
  in
  let plan =
    Faults.empty |> Faults.with_drops ~seed:5 0.3
    |> Faults.crash ~round:1 20 |> Faults.crash ~round:1 170
    |> Faults.crash ~round:2 100
  in
  let observe engine jobs =
    let f = Faults.make plan in
    let tr = Trace.create g in
    let viol =
      match Network.run ~faults:f ~trace:tr ~engine ~jobs g prog with
      | _ -> None
      | exception e -> violation_of e
    in
    (viol, Faults.events f, Trace.to_jsonl tr)
  in
  let ((viol, events, _) as ref_) = observe `Ref 1 in
  Alcotest.(check bool) "node 50 violates first" true
    (viol = Some (`Nn (50, 52)));
  Alcotest.(check bool) "faults were injected" true (events <> []);
  Alcotest.(check bool) "-j 1 matches ref" true (observe `Fast 1 = ref_);
  Alcotest.(check bool) "-j 4 matches ref" true (observe `Fast 4 = ref_)

let sharded_round_limit_agrees () =
  let g = Generators.cycle 40 in
  let prog =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round:_ ~me () _ ->
          let out = Graph.fold_adj g me (fun acc u _ -> (u, [| 1 |]) :: acc) [] in
          { Network.state = (); out; halt = false });
    }
  in
  let partial engine jobs =
    match Network.run ~max_rounds:5 ~engine ~jobs g prog with
    | _ -> None
    | exception Network.Round_limit_exceeded { limit; partial } ->
        Some (limit, partial)
  in
  let ref_ = partial `Ref 1 in
  Alcotest.(check bool) "sharded limit parity" true
    (ref_ <> None && partial `Fast 1 = ref_ && partial `Fast 4 = ref_)

let suite =
  [
    random_programs_fault_free;
    random_programs_under_faults;
    native_protocols_agree;
    bfs_under_faults_agrees;
    bs_distributed_agrees;
    case "model violations identical" violations_agree;
    case "round limit identical" round_limit_agrees;
    sharded_bare;
    sharded_traced_faulted;
    sharded_metrics_jobs_invariant;
    case "sharded: model violations identical" sharded_violations_agree;
    case "sharded: violations under faults and trace identical"
      sharded_violations_under_hooks;
    case "sharded: round limit identical" sharded_round_limit_agrees;
  ]
