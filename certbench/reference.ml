(* Host-speed reference.

   The shared hosts this benchmark runs on change speed by up to 2x over
   minutes, and by as much from one second to the next: every part of the
   work slows down alike, so a median inside one run cannot remove it.
   The benchmark therefore times a short fixed reference job before and
   after each measured piece of work and scales the piece's time by
   [nominal / mean of the two reference times] — seconds as they would
   read on a host where the reference takes [nominal] seconds.

   The reference is the benchmark's own code and input, independent of
   the seed and of the library, so a change to the program cannot move
   it: breadth-first searches over a fixed random graph of 2^17 vertices
   and 2^19 arcs (about 5 MB, beyond the L2 cache, like the graphs the
   pipeline walks).  The searches allocate nothing, so the state of the
   program's heap does not reach them. *)

let n = 1 lsl 17
let degree = 4
let searches = 4

(* Seconds one [sample] takes on the host the nominal scale refers to:
   the 2-vCPU Xeon VM the benchmark was tuned on, near its fastest. *)
let nominal = 0.025

type graph = { off : int array; dst : int array; dist : int array; queue : int array }

let graph =
  lazy
    (let rng = Random.State.make [| 0x5eed; n; degree |] in
     let off = Array.init (n + 1) (fun v -> v * degree) in
     let dst =
       Array.init (n * degree) (fun a ->
           if a mod degree = 0 then ((a / degree) + 1) mod n else Random.State.int rng n)
     in
     { off; dst; dist = Array.make n (-1); queue = Array.make n 0 })

(* Sum of the BFS distances from [src]; the ring arc of every vertex
   keeps the graph connected. *)
let bfs g src =
  Array.fill g.dist 0 n (-1);
  g.dist.(src) <- 0;
  g.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 and sum = ref 0 in
  while !head < !tail do
    let u = g.queue.(!head) in
    incr head;
    let du = g.dist.(u) in
    sum := !sum + du;
    for a = g.off.(u) to g.off.(u + 1) - 1 do
      let v = g.dst.(a) in
      if g.dist.(v) < 0 then begin
        g.dist.(v) <- du + 1;
        g.queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !sum

let expected = ref None
let samples : float list ref = ref []

(* One timed sample: [searches] searches from fixed sources.  The sum of
   all distances must be the same every time; a different one means the
   reference itself is broken. *)
let sample () =
  let g = Lazy.force graph in
  let t0 = Unix.gettimeofday () in
  let total = ref 0 in
  for i = 1 to searches do
    total := !total + bfs g (i * 7919 mod n)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (match !expected with
  | None -> expected := Some !total
  | Some e -> if e <> !total then failwith "certbench: reference searches disagree");
  samples := dt :: !samples;
  dt

(* The latest sample; measured pieces of work follow one another, so the
   sample after one piece is the sample before the next. *)
let last = ref nan

let scale raw ~before ~after = raw *. nominal /. ((before +. after) /. 2.)

(* [measure f] runs [f] between two reference samples and returns its
   result, its seconds and its reference-scaled seconds. *)
let measure f =
  let before = if Float.is_nan !last then sample () else !last in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let after = sample () in
  last := after;
  (x, dt, scale dt ~before ~after)
