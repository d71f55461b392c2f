(* The verification plane: witness builders, CONGEST checker programs,
   eps-far probes, the Verify front door and the corruption matrix. *)

open Ultraspan
open Helpers

let sp_of g k = (Bs_derand.run ~k g).Bs_derand.spanner

let run_spanner_checker ?engine ?backend ?jobs g sp k =
  let w = Witness.spanner g ~k sp in
  let cv =
    Checkers.spanner ?engine ?backend ?jobs g ~keep:sp.Spanner.keep ~k
      ~detour:w.Witness.detour
  in
  (w, cv)

(* ---------- witness completeness + checker completeness ---------- *)

let unweighted_accepts =
  qcheck ~count:15 "spanner witness complete + checker accepts (unit weights)"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:80 seed in
      let k = 2 + (seed mod 3) in
      let w, cv = run_spanner_checker g (sp_of g k) k in
      w.Witness.missing = 0 && Checkers.all_accept cv)

let weighted_accepts =
  qcheck ~count:15 "spanner witness complete + checker accepts (weighted)"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:70 ~max_w:20 seed in
      let k = 2 + (seed mod 3) in
      let w, cv = run_spanner_checker g (sp_of g k) k in
      w.Witness.missing = 0 && Checkers.all_accept cv)

let whole_graph_spanner () =
  (* A tree spanner keeps every edge: no walks, immediate acceptance. *)
  let g = Generators.binary_tree 31 in
  let sp = sp_of g 2 in
  let w, cv = run_spanner_checker g sp 2 in
  Alcotest.(check int) "no missing witnesses" 0 w.Witness.missing;
  Alcotest.(check int) "no messages" 0 cv.Checkers.stats.Network.messages;
  Alcotest.(check bool) "accepts" true (Checkers.all_accept cv)

let empty_spanner_rejected () =
  let g = unit_graph_of_seed 3 in
  let v = Verify.spanner ~mode:Verify.Local ~k:2 g (Spanner.empty g) in
  Alcotest.(check bool) "rejected" false v.Verify.ok;
  Alcotest.(check bool) "has rejecting nodes" true (v.Verify.rejects > 0)

(* ---------- witness builder vs the list-based reference ----------

   [Witness_ref] is the builder [Witness.spanner] replaced.  The two must
   agree byte for byte on [detour] and [missing]: on the constructions'
   own masks, on corrupted and empty masks, on weighted inputs (where the
   early exit is weight-driven) and on disconnected ones. *)

let same_witness g ~k keep =
  let sp = { (Spanner.empty g) with Spanner.keep } in
  Witness.spanner g ~k sp = Witness_ref.spanner g ~k sp

let masks_of ~seed ~k g =
  let bs = (Bs_derand.run ~k g).Bs_derand.spanner.Spanner.keep in
  let rng = Rng.create seed in
  let corrupt =
    Array.map (fun kp -> if Rng.bernoulli rng 0.15 then not kp else kp) bs
  in
  [ bs; (Greedy.run ~k g).Spanner.keep; corrupt; Array.make (Graph.m g) false ]

let witness_differential name graph_of =
  qcheck ~count:25 name seed_gen (fun seed ->
      let g = graph_of seed in
      List.for_all
        (fun k -> List.for_all (same_witness g ~k) (masks_of ~seed ~k g))
        [ 1; 2; 3; 4 ])

let witness_matches_reference_unit =
  witness_differential "witness == list-based reference (unit, k 1..4)"
    (unit_graph_of_seed ~n_max:80)

let witness_matches_reference_weighted =
  witness_differential "witness == list-based reference (max_w 20, k 1..4)"
    (graph_of_seed ~n_max:80 ~max_w:20)

let witness_matches_reference_disconnected =
  witness_differential
    "witness == list-based reference (disconnected, weights 0..20)"
    (fun seed ->
      let rng = Rng.create (succ seed) in
      let n = 10 + Rng.int rng 60 in
      Generators.gnp ~rng ~n ~p:(1.5 /. float_of_int n)
      |> Generators.randomize_weights ~rng ~lo:0 ~hi:20)

let witness_lighter_longer_detour () =
  (* Edge 0-1 (weight 2) is dropped.  The spanner offers 0-2-1 (2 hops,
     weight 4) and 0-3-4-1 (3 hops, weight 3).  After layer 2 the best
     known weight, 4, exceeds the 3 * w_min = 3 a 3-hop path must weigh,
     so the early exit must not fire: layer 3 finds the lighter path. *)
  let g =
    Graph.of_edges ~n:5
      [ (0, 1, 2); (0, 2, 2); (2, 1, 2); (0, 3, 1); (3, 4, 1); (4, 1, 1) ]
  in
  let dropped = Option.get (Graph.find_edge g 0 1) in
  let keep = Array.init (Graph.m g) (fun e -> e <> dropped) in
  let sp = { (Spanner.empty g) with Spanner.keep } in
  let w = Witness.spanner g ~k:2 sp in
  Alcotest.(check int) "no missing witnesses" 0 w.Witness.missing;
  Alcotest.(check (array int))
    "lighter 3-hop detour" [| 0; 3; 4; 1 |] w.Witness.detour.(dropped);
  Alcotest.(check bool) "same as reference" true (same_witness g ~k:2 keep);
  (* with k = 1 only the direct hop is allowed: no detour exists *)
  let w1 = Witness.spanner g ~k:1 sp in
  Alcotest.(check int) "k = 1: missing" 1 w1.Witness.missing

let witness_allocation_bounded () =
  (* The builder allocates its scratch once and then only the detour
     paths: nothing per relaxation. *)
  let g =
    Generators.connected_gnp ~rng:(Rng.create 3) ~n:300 ~avg_degree:40.0
  in
  let k = 3 in
  let sp = sp_of g k in
  let before = Gc.allocated_bytes () in
  let w = Witness.spanner g ~k sp in
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let n = Graph.n g and m = Graph.m g in
  let paths =
    Array.fold_left (fun acc p -> acc + Array.length p + 1) 0 w.Witness.detour
  in
  let scratch = (3 * 2 * k * n) + (6 * n) + (5 * m) + Graph.max_degree g in
  if words > float_of_int ((2 * (scratch + paths)) + 4096) then
    Alcotest.failf "allocated %.0f words; scratch %d + paths %d" words scratch
      paths

let cert_accepts name builder =
  qcheck ~count:12 name seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:80 seed in
      let k = 2 + (seed mod 2) in
      let cert = builder ~k g in
      match Witness.certificate g cert with
      | Error e -> QCheck2.Test.fail_reportf "no witness: %s" e
      | Ok w ->
          let cv =
            Checkers.forests g ~keep:cert.Certificate.keep ~k
              ~forest:w.Witness.forest ~parent:w.Witness.parent
              ~depth:w.Witness.depth ~root:w.Witness.root
          in
          Checkers.all_accept cv
          && cv.Checkers.stats.Network.rounds <= 3)

let thurimella_accepts =
  cert_accepts "thurimella witness accepts in O(1) rounds"
    (fun ~k g -> Thurimella.certificate ~k g)

let ni_accepts =
  cert_accepts "nagamochi-ibaraki witness accepts in O(1) rounds"
    (fun ~k g -> Nagamochi_ibaraki.certificate ~k g)

(* ---------- corruption matrix: detection + byte-identity ---------- *)

let matrix_run ?engine ?backend ?jobs () =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  let ok = Verify.matrix ?engine ?backend ?jobs ~seed:11 ~quick:true ppf in
  Format.pp_print_flush ppf ();
  (ok, Buffer.contents b)

let matrix_detects () =
  let ok, transcript = matrix_run () in
  if not ok then Alcotest.failf "matrix failed:\n%s" transcript;
  Alcotest.(check bool) "mentions corruptions" true
    (String.length transcript > 0)

let matrix_byte_identical () =
  let _, seq = matrix_run ~engine:`Fast ~backend:`Seq () in
  let _, sh1 = matrix_run ~engine:`Fast ~backend:`Sharded ~jobs:1 () in
  let _, sh4 = matrix_run ~engine:`Fast ~backend:`Sharded ~jobs:4 () in
  let _, refe = matrix_run ~engine:`Ref ~backend:`Seq () in
  Alcotest.(check string) "seq = sharded -j1" seq sh1;
  Alcotest.(check string) "seq = sharded -j4" seq sh4;
  Alcotest.(check string) "fast = ref" seq refe

(* ---------- eps-far probes ---------- *)

let eps_far_connected () =
  let g = Generators.torus 16 16 in
  let r = Eps_far.connectivity ~seed:5 ~epsilon:0.1 g in
  Alcotest.(check bool) "accepts" true r.Eps_far.accepted;
  Alcotest.(check bool) "vertex budget" true
    (r.Eps_far.vertex_queries <= r.Eps_far.samples * r.Eps_far.cap)

let eps_far_matching_rejected () =
  let n = 64 in
  let g =
    Graph.of_edges ~n (List.init (n / 2) (fun i -> ((2 * i), (2 * i) + 1, 1)))
  in
  let r = Eps_far.connectivity ~seed:5 ~epsilon:0.1 g in
  Alcotest.(check bool) "rejects" false r.Eps_far.accepted;
  match r.Eps_far.witness with
  | Some (_, size) -> Alcotest.(check int) "witness component" 2 size
  | None -> Alcotest.fail "no witness"

let eps_far_keep_mask () =
  let g = unit_graph_of_seed 9 in
  let none = Array.make (Graph.m g) false in
  let r = Eps_far.connectivity ~keep:none ~seed:5 ~epsilon:0.1 g in
  Alcotest.(check bool) "empty subgraph rejected" false r.Eps_far.accepted;
  let all = Array.make (Graph.m g) true in
  let r = Eps_far.connectivity ~keep:all ~seed:5 ~epsilon:0.1 g in
  Alcotest.(check bool) "full connected subgraph accepted" true
    r.Eps_far.accepted

(* ---------- the Verify front door ---------- *)

let front_door_spanner () =
  let g = unit_graph_of_seed 5 in
  let sp = sp_of g 3 in
  List.iter
    (fun mode ->
      let v = Verify.spanner ~mode ~k:3 g sp in
      Alcotest.(check bool) (Verify.mode_name mode ^ " ok") true v.Verify.ok)
    [ Verify.Local; Verify.Exact; Verify.Probe ]

let front_door_certificate () =
  let g = k_connected_graph ~k:3 17 in
  let cert = Thurimella.certificate ~k:3 g in
  List.iter
    (fun mode ->
      let v = Verify.certificate ~mode g cert in
      Alcotest.(check bool) (Verify.mode_name mode ^ " ok") true v.Verify.ok)
    [ Verify.Local; Verify.Exact; Verify.Probe ]

let local_fallback_on_non_peeling () =
  (* Keeping *all* edges of a dense graph is a valid certificate but not a
     union of k spanning-forest peelings, so no witness exists: Local must
     fall back to the exact checker and say so. *)
  let g = unit_graph_of_seed 7 in
  let all = List.init (Graph.m g) (fun e -> e) in
  Alcotest.(check bool) "dense enough" true (Graph.m g > 2 * Graph.n g);
  let cert = Certificate.of_eids g ~k:2 all in
  (match Witness.certificate g cert with
  | Ok _ -> Alcotest.fail "expected no witness for the all-edges certificate"
  | Error _ -> ());
  let v = Verify.certificate ~mode:Verify.Local g cert in
  Alcotest.(check bool) "fallback verdict ok" true v.Verify.ok;
  Alcotest.(check bool) "fallback noted" true
    (String.length v.Verify.note > 0)

let checker_validates_inputs () =
  let g = unit_graph_of_seed 4 in
  let bad_len = Array.make (Graph.m g + 1) false in
  Alcotest.check_raises "keep length"
    (Invalid_argument "Checkers.spanner: keep length mismatch") (fun () ->
      ignore
        (Checkers.spanner g ~keep:bad_len ~k:2
           ~detour:(Array.make (Graph.m g) [||])))

let suite =
  [
    unweighted_accepts;
    weighted_accepts;
    case "whole-graph spanner: vacuous accept" whole_graph_spanner;
    case "empty spanner rejected" empty_spanner_rejected;
    witness_matches_reference_unit;
    witness_matches_reference_weighted;
    witness_matches_reference_disconnected;
    case "witness: lighter longer detour beats the early exit"
      witness_lighter_longer_detour;
    case "witness: allocation bounded by scratch + paths"
      witness_allocation_bounded;
    thurimella_accepts;
    ni_accepts;
    case "corruption matrix: all detected" matrix_detects;
    slow_case "matrix byte-identical across engines/backends/jobs"
      matrix_byte_identical;
    case "eps-far: connected accepted within budget" eps_far_connected;
    case "eps-far: far-from-connected rejected" eps_far_matching_rejected;
    case "eps-far: keep-mask subgraph" eps_far_keep_mask;
    case "front door: spanner modes" front_door_spanner;
    case "front door: certificate modes" front_door_certificate;
    case "local fallback on non-peeling certificate"
      local_fallback_on_non_peeling;
    case "checker input validation" checker_validates_inputs;
  ]
