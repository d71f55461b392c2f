(* In-memory span recorder for the traced run.

   Spans are recorded only around the benchmark's own calls into the
   library (the program itself is not instrumented).  Each span keeps its
   name, start, end, parent, the words allocated on the calling domain
   while it was open, and a free-form tag ("jobs=2", "batch 17", ...).
   Nothing is written until [write] is called at exit.  When recording is
   off, [run] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  tag : string;
  start : float;
  mutable stop : float;
  mutable alloc_words : float;
}

let enabled = ref false
let epoch = Unix.gettimeofday ()
let recorded : t list ref = ref []
let count = ref 0
let stack : t list ref = ref []

let now () = Unix.gettimeofday ()

let run ?(tag = "") name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !count; name; parent; tag; start = now (); stop = nan; alloc_words = 0. }
    in
    incr count;
    stack := s :: !stack;
    let a0 = Gc.allocated_bytes () in
    let finish () =
      s.stop <- now ();
      s.alloc_words <- (Gc.allocated_bytes () -. a0) /. 8.;
      stack := List.tl !stack;
      recorded := s :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let duration s = s.stop -. s.start

let all () = List.rev !recorded

let with_name name = List.filter (fun s -> s.name = name) (all ())

(* Self time: the span's duration minus the part its children cover.
   Children of one span never overlap (the benchmark is sequential on the
   calling domain), so the covered part is the sum of their durations. *)
let self_time s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) (all ())

(* Total self time per span name over the spans [keep] selects, in order
   of first appearance: (name, seconds, span count). *)
let self_times keep =
  let totals = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun s ->
      if keep s then begin
        let self = self_time s in
        match Hashtbl.find_opt totals s.name with
        | Some (t, c) -> Hashtbl.replace totals s.name (t +. self, c + 1)
        | None ->
            order := s.name :: !order;
            Hashtbl.add totals s.name (self, 1)
      end)
    (all ());
  List.rev_map (fun name -> let t, c = Hashtbl.find totals name in (name, t, c)) !order

let write path =
  let oc = open_out path in
  output_string oc "{\"schema\": \"certbench-spans/1\", \"spans\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"name\": %S, \"parent\": %d, \"tag\": %S, \"start_s\": %.6f, \"end_s\": %.6f, \"alloc_words\": %.0f}"
        (if i = 0 then "" else ",\n")
        s.id s.name s.parent s.tag (s.start -. epoch) (s.stop -. epoch) s.alloc_words)
    (all ());
  output_string oc "\n]}\n";
  close_out oc
