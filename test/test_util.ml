open Ultraspan
open Helpers

(* ---------- Rng ---------- *)

let rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let rng_int_uniformish () =
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  let trials = 8000 in
  for _ = 1 to trials do
    let x = Rng.int rng 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    counts

let rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (x >= 0.0 && x < 2.5)
  done

let rng_bernoulli_bias () =
  let rng = Rng.create 9 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  Alcotest.(check bool) "p=0.3 within 3 sigma" true (!hits > 2800 && !hits < 3200)

let rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* the split stream is not a shifted copy of the parent's *)
  let xa = Array.init 20 (fun _ -> Rng.int64 a) in
  let xb = Array.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let rng_shuffle_permutation =
  qcheck "shuffle is a permutation" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let a = Array.init 50 (fun i -> i) in
      Rng.shuffle rng a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init 50 (fun i -> i))

let rng_int_in () =
  let rng = Rng.create 17 in
  for _ = 1 to 500 do
    let x = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "int_in range" true (x >= -5 && x <= 5)
  done

(* ---------- Pqueue ---------- *)

let pqueue_sorts =
  qcheck "pqueue pops in sorted order"
    QCheck2.Gen.(list_size (int_bound 200) int)
    (fun xs ->
      let pq = Pqueue.create ~cmp:compare () in
      List.iter (fun x -> Pqueue.push pq x x) xs;
      let rec drain acc =
        match Pqueue.pop pq with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare xs)

let pqueue_basics () =
  let pq = Pqueue.create ~cmp:compare () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty pq);
  Alcotest.(check (option (pair int string))) "peek empty" None (Pqueue.peek pq);
  Pqueue.push pq 3 "c";
  Pqueue.push pq 1 "a";
  Pqueue.push pq 2 "b";
  Alcotest.(check int) "length" 3 (Pqueue.length pq);
  Alcotest.(check (option (pair int string))) "peek min" (Some (1, "a")) (Pqueue.peek pq);
  Alcotest.(check (pair int string)) "pop order" (1, "a") (Pqueue.pop_exn pq);
  Alcotest.(check (pair int string)) "pop order" (2, "b") (Pqueue.pop_exn pq);
  Pqueue.clear pq;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty pq)

let pqueue_pop_exn_empty () =
  let pq = Pqueue.create ~cmp:compare () in
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Pqueue.pop_exn: empty queue") (fun () ->
      ignore (Pqueue.pop_exn pq : int * int))

let pqueue_custom_order () =
  let pq = Pqueue.create ~cmp:(fun a b -> compare b a) () in
  List.iter (fun x -> Pqueue.push pq x x) [ 5; 1; 9; 3 ];
  Alcotest.(check (pair int int)) "max-heap" (9, 9) (Pqueue.pop_exn pq)

(* ---------- Bitset ---------- *)

let bitset_basics () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "empty cardinal" 0 (Bitset.cardinal b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 99;
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "not mem 50" false (Bitset.mem b 50);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal b);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 63; 99 ] (Bitset.to_list b);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Bitset.clear b;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal b)

let bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.add b 10)

let bitset_matches_naive =
  qcheck "bitset matches naive set"
    QCheck2.Gen.(list_size (int_bound 100) (int_bound 63))
    (fun ops ->
      let b = Bitset.create 64 in
      let naive = Hashtbl.create 16 in
      List.iter
        (fun i ->
          if Hashtbl.mem naive i then begin
            Hashtbl.remove naive i;
            Bitset.remove b i
          end
          else begin
            Hashtbl.replace naive i ();
            Bitset.add b i
          end)
        ops;
      Bitset.cardinal b = Hashtbl.length naive
      && List.for_all (Hashtbl.mem naive) (Bitset.to_list b))

(* ---------- Union_find ---------- *)

let union_find_matches_components =
  qcheck "union-find matches naive reachability" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let n = 30 in
      let uf = Union_find.create n in
      let adj = Array.make_matrix n n false in
      for _ = 1 to 40 do
        let a = Rng.int rng n and b = Rng.int rng n in
        if a <> b then begin
          ignore (Union_find.union uf a b);
          adj.(a).(b) <- true;
          adj.(b).(a) <- true
        end
      done;
      (* Floyd–Warshall style closure *)
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if adj.(i).(k) && adj.(k).(j) then adj.(i).(j) <- true
          done
        done
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && Union_find.same uf i j <> adj.(i).(j) then ok := false
        done
      done;
      !ok)

let union_find_counts () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial count" 5 (Union_find.count uf);
  Alcotest.(check bool) "union joins" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat is noop" false (Union_find.union uf 1 0);
  Alcotest.(check int) "count after union" 4 (Union_find.count uf);
  Alcotest.(check int) "size" 2 (Union_find.size_of uf 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check int) "size big" 4 (Union_find.size_of uf 2)

(* ---------- Stats ---------- *)

let stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Stats.variance xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median xs);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "min_max" (1.0, 4.0)
    (Stats.min_max xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 1.0)

let stats_histogram () =
  let xs = [| 0.0; 0.5; 1.0; 1.5; 2.0 |] in
  let h = Stats.histogram ~bins:2 xs in
  Alcotest.(check int) "two bins" 2 (Array.length h);
  let total = Array.fold_left (fun a (_, _, c) -> a + c) 0 h in
  Alcotest.(check int) "counts sum" 5 total

let stats_histogram_constant () =
  (* all-equal data used to produce zero-width buckets with every count in
     the last one; now it degenerates to a single explicit bucket *)
  let h = Stats.histogram ~bins:5 [| 2.5; 2.5; 2.5 |] in
  Alcotest.(check int) "one bucket" 1 (Array.length h);
  let lo, hi, c = h.(0) in
  Alcotest.(check (float 1e-9)) "lo" 2.5 lo;
  Alcotest.(check (float 1e-9)) "hi" 2.5 hi;
  Alcotest.(check int) "count" 3 c;
  let single = Stats.histogram ~bins:3 [| 7.0 |] in
  Alcotest.(check int) "singleton input" 1 (Array.length single)

let profile_basics () =
  let p = Profile.create () in
  let x = Profile.time p "work" (fun () -> 1 + 1) in
  Alcotest.(check int) "result threaded through" 2 x;
  ignore (Profile.time p "work" (fun () -> ()));
  Profile.record p "fixed" 0.5;
  (match Profile.phases p with
  | [ ("work", _, 2); ("fixed", s, 1) ] ->
      Alcotest.(check (float 1e-9)) "recorded seconds" 0.5 s
  | _ -> Alcotest.fail "expected [work x2; fixed x1] in first-use order");
  Alcotest.(check bool) "total >= recorded" true (Profile.total p >= 0.5);
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Profile.record: negative duration") (fun () ->
      Profile.record p "fixed" (-1.0))

let stats_empty () =
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean [||]);
  Alcotest.check_raises "min_max empty"
    (Invalid_argument "Stats.min_max: empty array") (fun () ->
      ignore (Stats.min_max [||]))

(* ---------- Hash_family ---------- *)

let hash_family_deterministic () =
  let h = Hash_family.of_coeffs [| 12345; 678; 91011 |] in
  let a = Array.init 50 (Hash_family.eval h) in
  let b = Array.init 50 (Hash_family.eval h) in
  Alcotest.(check bool) "same outputs" true (a = b)

let hash_family_range =
  qcheck "eval within field" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let h = Hash_family.create ~degree:3 rng in
      List.for_all
        (fun i ->
          let v = Hash_family.eval h i in
          v >= 0 && v < Hash_family.prime)
        (List.init 100 (fun i -> i * 7919)))

let hash_family_marginals () =
  (* Across random seeds, each indicator fires with probability ~ p. *)
  let rng = Rng.create 99 in
  let p = 0.25 in
  let threshold = Hash_family.threshold_of_prob p in
  let trials = 3000 in
  let hits = ref 0 in
  for _ = 1 to trials do
    let h = Hash_family.create ~degree:2 rng in
    if Hash_family.indicator h ~threshold 42 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "marginal close to p" true (abs_float (freq -. p) < 0.04)

let hash_family_hitting_event () =
  (* Hitting-event probability under the family approximates independence:
     Pr[no X_i fires among 10 indices] should be close to (1-p)^10 when the
     degree (independence) is high enough. *)
  let rng = Rng.create 4242 in
  let p = 0.2 in
  let threshold = Hash_family.threshold_of_prob p in
  let trials = 3000 in
  let misses = ref 0 in
  for _ = 1 to trials do
    let h = Hash_family.create ~degree:9 rng in
    let all_zero = ref true in
    for i = 0 to 9 do
      if Hash_family.indicator h ~threshold (1000 + i) then all_zero := false
    done;
    if !all_zero then incr misses
  done;
  let freq = float_of_int !misses /. float_of_int trials in
  let expected = (1.0 -. p) ** 10.0 in
  Alcotest.(check bool) "hitting-event approximated" true
    (abs_float (freq -. expected) < 0.05)

let hash_family_pairwise_independence () =
  (* Degree-1 family: joint distribution of two indicators ~ product. *)
  let rng = Rng.create 7 in
  let p = 0.5 in
  let threshold = Hash_family.threshold_of_prob p in
  let trials = 4000 in
  let both = ref 0 in
  for _ = 1 to trials do
    let h = Hash_family.create ~degree:1 rng in
    if Hash_family.indicator h ~threshold 3 && Hash_family.indicator h ~threshold 77
    then incr both
  done;
  let freq = float_of_int !both /. float_of_int trials in
  Alcotest.(check bool) "pairwise product" true (abs_float (freq -. 0.25) < 0.04)

let hash_family_bad_args () =
  Alcotest.check_raises "negative degree"
    (Invalid_argument "Hash_family.create: negative degree") (fun () ->
      ignore (Hash_family.create ~degree:(-1) (Rng.create 0)))

(* The perf suite's generator-scaling gate: linear and n log n timings
   pass a 1.4 ceiling, quadratic ones (the row-walk G(n,p)) must fail —
   the gate's negative control — and so must unusable samples. *)
let stats_exponent_gate () =
  let at f = List.map (fun n -> (n, f n)) [ 2.5e4; 1e5 ] in
  let fit samples = Stats.scaling_exponent samples in
  Alcotest.(check (float 1e-9)) "linear" 1.0 (fit (at (fun n -> 3e-6 *. n)));
  Alcotest.(check (float 1e-9)) "quadratic" 2.0
    (fit (at (fun n -> 1e-9 *. n *. n)));
  Alcotest.(check (float 1e-9)) "three-point cubic" 3.0
    (fit (List.map (fun n -> (n, n *. n *. n)) [ 10.0; 100.0; 1000.0 ]));
  let passes samples =
    Result.is_ok (Stats.exponent_gate ~ceiling:1.4 samples)
  in
  Alcotest.(check bool) "linear passes" true (passes (at (fun n -> 2e-6 *. n)));
  Alcotest.(check bool) "n log n passes" true
    (passes (at (fun n -> 1e-7 *. n *. log n)));
  Alcotest.(check bool) "quadratic fails" false
    (passes (at (fun n -> 1e-9 *. n *. n)));
  Alcotest.(check bool) "n^1.5 fails" false (passes (at (fun n -> n ** 1.5)));
  Alcotest.(check bool) "one size fails" false
    (passes [ (1e5, 0.2); (1e5, 0.3) ]);
  Alcotest.(check bool) "zero time fails" false
    (passes [ (2.5e4, 0.0); (1e5, 0.2) ]);
  Alcotest.(check bool) "empty fails" false (passes [])

let suite =
  [
    case "rng: deterministic" rng_deterministic;
    case "rng: seed sensitivity" rng_seed_sensitivity;
    case "rng: int range" rng_int_range;
    case "rng: int uniform-ish" rng_int_uniformish;
    case "rng: float range" rng_float_range;
    case "rng: bernoulli bias" rng_bernoulli_bias;
    case "rng: split independence" rng_split_independent;
    rng_shuffle_permutation;
    case "rng: int_in" rng_int_in;
    pqueue_sorts;
    case "pqueue: basics" pqueue_basics;
    case "pqueue: pop_exn empty" pqueue_pop_exn_empty;
    case "pqueue: custom order" pqueue_custom_order;
    case "bitset: basics" bitset_basics;
    case "bitset: bounds" bitset_bounds;
    bitset_matches_naive;
    union_find_matches_components;
    case "union_find: counts" union_find_counts;
    case "stats: basics" stats_basics;
    case "stats: histogram" stats_histogram;
    case "stats: histogram constant data" stats_histogram_constant;
    case "stats: empty" stats_empty;
    case "stats: scaling exponent gate" stats_exponent_gate;
    case "profile: basics" profile_basics;
    case "hash_family: deterministic" hash_family_deterministic;
    hash_family_range;
    case "hash_family: marginals" hash_family_marginals;
    case "hash_family: hitting events" hash_family_hitting_event;
    case "hash_family: pairwise independence" hash_family_pairwise_independence;
    case "hash_family: bad args" hash_family_bad_args;
  ]
