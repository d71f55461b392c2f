open! Import

type verdict = { accept : bool array; stats : Network.stats }

let all_accept v = Array.for_all (fun b -> b) v.accept

(* ---------- spanner: detour-walk verification ---------- *)

(* Walk-token payload layout: [| eid; idx; acc; p0; p1; ... |] where
   [idx] is the receiving node's index in the path [p] and [acc] the
   spanner-path weight accumulated up to it.  The path has at most 2k
   vertices (enforced at launch), so a token is at most [2k + 3] words. *)

type sp_state = {
  sp_ok : bool;
  sp_pending : (int * int array) list;  (* (next hop, token), FIFO *)
}

let sp_check_failed st = { st with sp_ok = false }

(* Emit at most one pending token per neighbour (CONGEST: one message per
   edge per round); the rest stay queued in order. *)
let sp_emit st =
  let sent = Hashtbl.create 8 in
  let out, kept =
    List.fold_left
      (fun (out, kept) (dst, tok) ->
        if Hashtbl.mem sent dst then (out, (dst, tok) :: kept)
        else begin
          Hashtbl.add sent dst ();
          ((dst, tok) :: out, kept)
        end)
      ([], []) st.sp_pending
  in
  ( { st with sp_pending = List.rev kept },
    List.rev out,
    (* halt only when nothing is left to push next round *)
    kept = [] )

let sp_launch g ~keep ~k ~detour me =
  let bound_hops = (2 * k) - 1 in
  Graph.fold_adj g me
    (fun st u eid ->
      if me < u && not keep.(eid) then begin
        let p = detour.(eid) in
        let len = Array.length p in
        if len < 2 || p.(0) <> me || p.(len - 1) <> u || len - 1 > bound_hops
        then sp_check_failed st
        else
          match Graph.find_edge g me p.(1) with
          | Some e1 when keep.(e1) ->
              let tok = Array.make (len + 3) 0 in
              tok.(0) <- eid;
              tok.(1) <- 1;
              tok.(2) <- Graph.weight g e1;
              Array.blit p 0 tok 3 len;
              { st with sp_pending = st.sp_pending @ [ (p.(1), tok) ] }
          | _ -> sp_check_failed st
      end
      else st)
    { sp_ok = true; sp_pending = [] }

let sp_receive g ~keep ~k ~detour me st tok =
  let eid = tok.(0) and idx = tok.(1) and acc = tok.(2) in
  let len = Array.length tok - 3 in
  let path i = tok.(3 + i) in
  if idx < 1 || idx >= len || path idx <> me then sp_check_failed st
  else if idx = len - 1 then begin
    (* Final hop: I must be the far endpoint, the accumulated spanner
       weight must meet the stretch budget, and the delivered path must
       match the copy recorded at my end of the edge. *)
    let eu, ev = Graph.endpoints g eid in
    let mine = detour.(eid) in
    let same_copy =
      Array.length mine = len
      &&
      let ok = ref true in
      for i = 0 to len - 1 do
        if mine.(i) <> path i then ok := false
      done;
      !ok
    in
    if
      path 0 = eu && me = ev
      && acc <= ((2 * k) - 1) * Graph.weight g eid
      && same_copy
    then st
    else sp_check_failed st
  end
  else begin
    let nxt = path (idx + 1) in
    match Graph.find_edge g me nxt with
    | Some e when keep.(e) ->
        let tok' = Array.copy tok in
        tok'.(1) <- idx + 1;
        tok'.(2) <- acc + Graph.weight g e;
        { st with sp_pending = st.sp_pending @ [ (nxt, tok') ] }
    | _ -> sp_check_failed st
  end

let spanner ?engine ?jobs ?metrics g ~keep ~k ~detour =
  if k < 1 then invalid_arg "Checkers.spanner: k >= 1";
  if Array.length keep <> Graph.m g then
    invalid_arg "Checkers.spanner: keep length mismatch";
  if Array.length detour <> Graph.m g then
    invalid_arg "Checkers.spanner: detour length mismatch";
  let program =
    {
      Network.init = (fun _ _ -> { sp_ok = true; sp_pending = [] });
      round =
        (fun g ~round ~me st inbox ->
          let st =
            if round = 0 then sp_launch g ~keep ~k ~detour me else st
          in
          let st =
            List.fold_left
              (fun st (_, tok) -> sp_receive g ~keep ~k ~detour me st tok)
              st inbox
          in
          let st, out, halt = sp_emit st in
          { Network.state = st; out; halt });
    }
  in
  (* Every round either delivers a token hop or the system is quiescent,
     and there are at most m walks of at most 2k-1 hops each. *)
  let max_rounds = (2 * k * (Graph.m g + 2)) + 4 in
  let word_limit = max 4 ((2 * k) + 3) in
  let states, stats =
    Network.run ~max_rounds ~word_limit ?metrics ?engine ?jobs g program
  in
  { accept = Array.map (fun s -> s.sp_ok) states; stats }

(* ---------- certificate: forest-label verification ---------- *)

(* One label exchange, one check round.  The message is my full label
   vector: [| root_1..k; depth_1..k; parent_1..k |] (3k words). *)

let fo_local_ok g ~keep ~k ~forest ~parent ~depth ~root me =
  let ok = ref true in
  for i = 0 to k - 1 do
    let p = parent.(i).(me) and r = root.(i).(me) and d = depth.(i).(me) in
    if p = -1 then begin
      if r <> me || d <> 0 then ok := false
    end
    else if p < 0 || p >= Graph.n g || d < 1 then ok := false
    else
      match Graph.find_edge g me p with
      | Some e -> if forest.(e) <> i + 1 then ok := false
      | None -> ok := false
  done;
  Graph.iter_adj g me (fun _ eid ->
      let l = forest.(eid) in
      if l < 0 || l > k || keep.(eid) <> (l >= 1) then ok := false);
  !ok

let fo_edge_ok ~k ~forest ~parent ~depth ~root me eid sender msg =
  let j = forest.(eid) in
  let ok = ref true in
  (if j >= 1 then begin
     (* Tree-edge rule for the edge's own peel. *)
     let i = j - 1 in
     let r = root.(i).(me) and d = depth.(i).(me) and p = parent.(i).(me) in
     let r' = msg.(i) and d' = msg.(k + i) and p' = msg.((2 * k) + i) in
     if r <> r' then ok := false;
     if not ((p = sender && d = d' + 1) || (p' = me && d' = d + 1)) then
       ok := false
   end);
  (* Maximality rule: endpoints already connected in every earlier peel. *)
  let hi = if j = 0 then k else j - 1 in
  for i = 0 to hi - 1 do
    if root.(i).(me) <> msg.(i) then ok := false
  done;
  !ok

let forests ?engine ?jobs ?metrics g ~keep ~k ~forest ~parent ~depth ~root =
  if k < 1 then invalid_arg "Checkers.forests: k >= 1";
  if Array.length keep <> Graph.m g then
    invalid_arg "Checkers.forests: keep length mismatch";
  if Array.length forest <> Graph.m g then
    invalid_arg "Checkers.forests: forest length mismatch";
  if
    Array.length parent <> k || Array.length depth <> k
    || Array.length root <> k
  then invalid_arg "Checkers.forests: label arrays must have k rows";
  let program =
    {
      Network.init = (fun _ _ -> true);
      round =
        (fun g ~round ~me ok inbox ->
          if round = 0 then begin
            let ok = fo_local_ok g ~keep ~k ~forest ~parent ~depth ~root me in
            let msg = Array.make (3 * k) 0 in
            for i = 0 to k - 1 do
              msg.(i) <- root.(i).(me);
              msg.(k + i) <- depth.(i).(me);
              msg.((2 * k) + i) <- parent.(i).(me)
            done;
            let out =
              List.rev
                (Graph.fold_adj g me (fun acc u _ -> (u, msg) :: acc) [])
            in
            { Network.state = ok; out; halt = true }
          end
          else begin
            let ok =
              List.fold_left
                (fun ok (sender, msg) ->
                  match Graph.find_edge g me sender with
                  | Some eid ->
                      ok
                      && fo_edge_ok ~k ~forest ~parent ~depth ~root me eid
                           sender msg
                  | None -> false)
                ok inbox
            in
            { Network.state = ok; out = []; halt = true }
          end);
    }
  in
  let word_limit = max 4 (3 * k) in
  let states, stats =
    Network.run ~max_rounds:8 ~word_limit ?metrics ?engine ?jobs g program
  in
  { accept = states; stats }
