(* Output checks.  Every check the benchmark makes goes through [record],
   which feeds [attempted]/[failed] (and so the error rate) and prints a
   line for each failure.  The checkers here deliberately avoid the
   library's own search code: served distances are re-derived by a
   Dijkstra written below, on an adjacency built from the spanner mask. *)

open Ultraspan

let attempted = ref 0
let failed = ref 0

let record name ok detail =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "CHECK FAILED %s: %s\n%!" name detail
  end

(* ---------- graph fingerprints ---------- *)

type fingerprint = { fn : int; fm : int; hash : string }

(* FNV-1a 64 over n, m and the (u, v, w) of every edge in id order. *)
let fingerprint g =
  let h = ref 0xcbf29ce484222325L in
  let mix x =
    let x = ref (Int64.of_int x) in
    for _ = 0 to 7 do
      h := Int64.mul (Int64.logxor !h (Int64.logand !x 0xffL)) 0x100000001b3L;
      x := Int64.shift_right_logical !x 8
    done
  in
  mix (Graph.n g);
  mix (Graph.m g);
  Graph.iter_edges g (fun e -> mix e.Graph.u; mix e.Graph.v; mix e.Graph.w);
  { fn = Graph.n g; fm = Graph.m g; hash = Printf.sprintf "%016Lx" !h }

let fingerprint_line ~family ~seed fp =
  Printf.sprintf "%s\t%d\t%d\t%d\t%s" family seed fp.fn fp.fm fp.hash

(* The recorded table: one [family seed n m hash] line per seed. *)
let load_fingerprints path =
  let tbl = Hashtbl.create 256 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char '\t' line with
         | [ family; seed; n; m; hash ] ->
             Hashtbl.replace tbl (family, int_of_string seed)
               { fn = int_of_string n; fm = int_of_string m; hash }
         | _ -> failwith (path ^ ": malformed fingerprint line: " ^ line)
     done
   with End_of_file -> close_in ic);
  tbl

let check_fingerprint tbl ~family ~seed ~first g =
  let fp = fingerprint g in
  (match Hashtbl.find_opt tbl (family, seed) with
  | Some want ->
      record "fingerprint" (want = fp)
        (Printf.sprintf "%s seed %d: got n=%d m=%d %s, recorded n=%d m=%d %s" family
           seed fp.fn fp.fm fp.hash want.fn want.fm want.hash)
  | None -> (
      (* No recorded value for this seed: later set-ups of the run must
         still replay the first one. *)
      match first with
      | None -> Printf.printf "fingerprint %s seed %d not recorded\n" family seed
      | Some f0 ->
          record "fingerprint-replay" (f0 = fp)
            (Printf.sprintf "%s seed %d: set-up replays differ (%s vs %s)" family seed
               f0.hash fp.hash)));
  fp

(* ---------- independent spanner distances ---------- *)

(* Kept subgraph as CSR arrays, built straight from the edge mask. *)
type sub = { off : int array; dst : int array; wt : int array }

let kept_subgraph g (keep : bool array) =
  let n = Graph.n g in
  let deg = Array.make (n + 1) 0 in
  Graph.iter_edges g (fun e ->
      if keep.(e.Graph.id) then begin
        deg.(e.Graph.u + 1) <- deg.(e.Graph.u + 1) + 1;
        deg.(e.Graph.v + 1) <- deg.(e.Graph.v + 1) + 1
      end);
  for i = 1 to n do deg.(i) <- deg.(i) + deg.(i - 1) done;
  let fill = Array.sub deg 0 n in
  let dst = Array.make deg.(n) 0 and wt = Array.make deg.(n) 0 in
  let put a b w = dst.(fill.(a)) <- b; wt.(fill.(a)) <- w; fill.(a) <- fill.(a) + 1 in
  Graph.iter_edges g (fun e ->
      if keep.(e.Graph.id) then begin
        put e.Graph.u e.Graph.v e.Graph.w;
        put e.Graph.v e.Graph.u e.Graph.w
      end);
  { off = deg; dst; wt }

(* Plain binary-heap Dijkstra with lazy deletion; [max_int] = unreachable. *)
let distance sub s t =
  let n = Array.length sub.off - 1 in
  let dist = Array.make n max_int in
  let heap = ref [||] and size = ref 0 in
  let push d v =
    if !size = Array.length !heap then
      heap := Array.append !heap (Array.make (max 16 !size) (0, 0));
    let h = !heap in
    let i = ref !size in
    incr size;
    while !i > 0 && fst h.((!i - 1) / 2) > d do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- (d, v)
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr size;
    let last = h.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && fst h.(l + 1) < fst h.(l) then l + 1 else l in
        if fst h.(c) < fst last then (h.(!i) <- h.(c); i := c) else continue := false
      end
    done;
    if !size > 0 then h.(!i) <- last;
    top
  in
  dist.(s) <- 0;
  push 0 s;
  let result = ref max_int in
  while !size > 0 && !result = max_int do
    let d, u = pop () in
    if u = t then result := d
    else if d = dist.(u) then
      for a = sub.off.(u) to sub.off.(u + 1) - 1 do
        let v = sub.dst.(a) and nd = d + sub.wt.(a) in
        if nd < dist.(v) then (dist.(v) <- nd; push nd v)
      done
  done;
  !result

(* ---------- served answers ---------- *)

(* Check [samples] seeded answers of one batch exactly against the kept
   subgraph (distances) and the mask (membership), then hand another
   seeded sample to [Query_engine.spot_check] against the original graph.
   A sample this small catches only errors that recur across batches.
   With [perturb], the batch's first distance answer is corrupted and
   put in the sample — the negative control. *)
let served ~rng ~samples ?(perturb = false) g keep sub oracle qs answers =
  let nq = Array.length qs in
  let picks = Array.init samples (fun _ -> Rng.int rng nq) in
  if perturb then begin
    let rec first_dist i =
      if i = nq then failwith "inject: no distance query in the batch to perturb"
      else match (qs.(i), answers.(i)) with
        | Query_engine.Dist _, Query_engine.Dist_answer d -> (i, d)
        | _ -> first_dist (i + 1)
    in
    let i, d = first_dist 0 in
    answers.(i) <- Query_engine.Dist_answer (if d = max_int then 0 else d + 1);
    picks.(0) <- i
  end;
  Array.iter
    (fun i ->
      match (qs.(i), answers.(i)) with
      | Query_engine.Dist (s, t), Query_engine.Dist_answer d ->
          let want = distance sub s t in
          record "served-distance" (d = want)
            (Printf.sprintf "dist %d %d answered %d, spanner distance %d" s t d want)
      | Query_engine.Mem (u, v), Query_engine.Mem_answer a ->
          let kept = ref None in
          Graph.iter_adj g u (fun w eid -> if w = v && keep.(eid) then kept := Some eid);
          record "served-membership" (a = !kept)
            (Printf.sprintf "mem %d %d answered %s" u v
               (match a with Some e -> string_of_int e | None -> "no"))
      | _ -> record "served-kind" false "query/answer kind mismatch")
    picks;
  match Query_engine.spot_check ~samples ~rng g oracle qs answers with
  | Ok _ -> record "spot-check" true ""
  | Error e -> record "spot-check" false e

(* ---------- negative control: a kept edge that needs a detour ---------- *)

(* A kept edge (u, v) whose removal leaves no u-v path of at most
   [2k-1] hops in the rest of the spanner: once dropped, its own stretch
   has no witness and local verification must reject. *)
let edge_without_detour g ~k (keep : bool array) =
  let sub = kept_subgraph g keep in
  let n = Graph.n g in
  let hops = Array.make n (-1) in
  let limit = (2 * k) - 1 in
  let has_detour u v =
    let touched = ref [ u ] in
    hops.(u) <- 0;
    let frontier = ref [ u ] and found = ref false and level = ref 0 in
    while (not !found) && !frontier <> [] && !level < limit do
      incr level;
      let next = ref [] in
      List.iter
        (fun x ->
          for a = sub.off.(x) to sub.off.(x + 1) - 1 do
            let y = sub.dst.(a) in
            let direct = (x = u && y = v) || (x = v && y = u) in
            if (not direct) && hops.(y) < 0 then begin
              hops.(y) <- !level;
              touched := y :: !touched;
              next := y :: !next;
              if y = v then found := true
            end
          done)
        !frontier;
      frontier := !next
    done;
    List.iter (fun x -> hops.(x) <- -1) !touched;
    !found
  in
  let found = ref None in
  Graph.iter_edges g (fun e ->
      if !found = None && keep.(e.Graph.id) && not (has_detour e.Graph.u e.Graph.v)
      then found := Some e.Graph.id);
  !found
