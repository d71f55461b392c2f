open! Import

(* Outbox addressed to every neighbour, in increasing neighbour order
   (adjacency slices are sorted, so a reversed fold preserves the order
   [Graph.neighbors] gave).  The payload array is shared across the
   outbox — the simulator never mutates payloads. *)
let out_to_all g me payload =
  List.rev (Graph.fold_adj g me (fun acc u _ -> (u, payload) :: acc) [])

let sorted_nbrs g v = List.rev (Graph.fold_adj g v (fun acc u _ -> u :: acc) [])

type bfs_result = { dist : int array; parent : int array }

(* ---------- BFS ---------- *)

type bfs_state = { bdist : int; bparent : int }

let bfs ?faults ?trace ?metrics ?engine ?jobs g ~root =
  if root < 0 || root >= Graph.n g then invalid_arg "Programs.bfs: bad root";
  let program =
    {
      Network.init = (fun _ _ -> { bdist = -1; bparent = -1 });
      round =
        (fun g ~round ~me st inbox ->
          if round = 0 && me = root then begin
            let out = out_to_all g me [| 0 |] in
            { Network.state = { bdist = 0; bparent = -1 }; out; halt = true }
          end
          else begin
            match inbox with
            | [] -> { Network.state = st; out = []; halt = true }
            | msgs ->
                if st.bdist >= 0 then
                  (* already settled; ignore late announcements *)
                  { Network.state = st; out = []; halt = true }
                else begin
                  let best_sender, best_d =
                    List.fold_left
                      (fun (bs, bd) (s, payload) ->
                        let d = payload.(0) in
                        if d < bd || (d = bd && s < bs) then (s, d) else (bs, bd))
                      (max_int, max_int) msgs
                  in
                  let st = { bdist = best_d + 1; bparent = best_sender } in
                  let payload = [| st.bdist |] in
                  let out =
                    List.rev
                      (Graph.fold_adj g me
                         (fun acc u _ ->
                           if u = best_sender then acc else (u, payload) :: acc)
                         [])
                  in
                  { Network.state = st; out; halt = true }
                end
          end);
    }
  in
  let states, stats = Network.run ?faults ?trace ?metrics ?engine ?jobs g program in
  ( {
      dist = Array.map (fun s -> s.bdist) states;
      parent = Array.map (fun s -> s.bparent) states;
    },
    stats )

(* ---------- broadcast max ---------- *)

type bc_state = { known : int }

let broadcast_max ?faults ?trace ?metrics ?engine ?jobs g ~values =
  if Array.length values <> Graph.n g then
    invalid_arg "Programs.broadcast_max: length mismatch";
  let program =
    {
      Network.init = (fun _ v -> { known = values.(v) });
      round =
        (fun g ~round ~me st inbox ->
          let incoming =
            List.fold_left (fun acc (_, p) -> max acc p.(0)) min_int inbox
          in
          let updated = max st.known incoming in
          if round = 0 || updated > st.known then begin
            let out = out_to_all g me [| updated |] in
            { Network.state = { known = updated }; out; halt = true }
          end
          else { Network.state = st; out = []; halt = true });
    }
  in
  let states, stats = Network.run ?faults ?trace ?metrics ?engine ?jobs g program in
  (Array.map (fun s -> s.known) states, stats)

(* ---------- maximal matching ---------- *)

let tag_propose = 0
let tag_matched = 1

type mm_state = {
  mate : int;
  alive : int list; (* unmatched neighbours, sorted increasing *)
  proposed_to : int;
  announced : bool;
}

let maximal_matching ?trace ?metrics ?engine ?jobs g =
  let program =
    {
      Network.init =
        (fun g v ->
          {
            mate = -1;
            alive = sorted_nbrs g v (* adjacency order, already increasing *);
            proposed_to = -1;
            announced = false;
          });
      round =
        (fun _ ~round ~me:_ st inbox ->
          (* Remove neighbours announced as matched. *)
          let dead =
            List.filter_map
              (fun (s, p) -> if p.(0) = tag_matched then Some s else None)
              inbox
          in
          let alive = List.filter (fun u -> not (List.mem u dead)) st.alive in
          let st = { st with alive } in
          if st.mate >= 0 then
            if st.announced then { Network.state = st; out = []; halt = true }
            else begin
              let out = List.map (fun u -> (u, [| tag_matched |])) st.alive in
              { Network.state = { st with announced = true }; out; halt = true }
            end
          else if round mod 2 = 0 then begin
            (* Propose phase. *)
            match st.alive with
            | [] -> { Network.state = st; out = []; halt = true }
            | target :: _ ->
                {
                  Network.state = { st with proposed_to = target };
                  out = [ (target, [| tag_propose |]) ];
                  halt = false;
                }
          end
          else begin
            (* Resolve phase: mutual proposals marry. *)
            let proposers =
              List.filter_map
                (fun (s, p) -> if p.(0) = tag_propose then Some s else None)
                inbox
            in
            if st.proposed_to >= 0 && List.mem st.proposed_to proposers then begin
              let mate = st.proposed_to in
              let out =
                List.filter_map
                  (fun u -> if u = mate then None else Some (u, [| tag_matched |]))
                  st.alive
              in
              {
                Network.state = { st with mate; announced = true; proposed_to = -1 };
                out;
                halt = true;
              }
            end
            else
              {
                Network.state = { st with proposed_to = -1 };
                out = [];
                halt = st.alive = [];
              }
          end);
    }
  in
  let states, stats = Network.run ?trace ?metrics ?engine ?jobs g program in
  (Array.map (fun s -> s.mate) states, stats)

(* ---------- Luby's MIS ---------- *)

let tag_priority = 2
let tag_in_mis = 3
let tag_removed = 4

type mis_status = Mis_active | Mis_in | Mis_covered

type mis_state = {
  status : mis_status;
  active_nbrs : int list;
  prios : (int * int) list; (* neighbour -> priority, this phase *)
}

let luby_mis ?trace ?metrics ?engine ?jobs ~seed g =
  (* Per-(vertex, phase) pseudo-random priorities via SplitMix: the whole
     run is reproducible from [seed]. *)
  let priority v phase =
    let r = Util.Rng.create ((seed * 1_000_003) + (v * 7919) + phase) in
    Util.Rng.bits r
  in
  let program =
    {
      Network.init =
        (fun g v ->
          {
            status = Mis_active;
            active_nbrs = sorted_nbrs g v;
            prios = [];
          });
      round =
        (fun _ ~round ~me st inbox ->
          let phase = round / 3 in
          let sub = round mod 3 in
          (* Removal notices can arrive at any sub-round boundary. *)
          let removed =
            List.filter_map
              (fun (s, p) -> if p.(0) = tag_removed then Some s else None)
              inbox
          in
          let active_nbrs =
            List.filter (fun u -> not (List.mem u removed)) st.active_nbrs
          in
          let st = { st with active_nbrs } in
          match st.status with
          | Mis_in | Mis_covered -> { Network.state = st; out = []; halt = true }
          | Mis_active ->
              if sub = 0 then begin
                if st.active_nbrs = [] then
                  (* isolated among active vertices: join the set *)
                  { Network.state = { st with status = Mis_in }; out = []; halt = true }
                else begin
                  let p = priority me phase in
                  let out =
                    List.map (fun u -> (u, [| tag_priority; p |])) st.active_nbrs
                  in
                  { Network.state = { st with prios = [] }; out; halt = false }
                end
              end
              else if sub = 1 then begin
                let prios =
                  List.filter_map
                    (fun (s, p) ->
                      if p.(0) = tag_priority then Some (s, p.(1)) else None)
                    inbox
                in
                let mine = priority me phase in
                let wins =
                  List.for_all
                    (fun (u, p) -> mine > p || (mine = p && me > u))
                    prios
                in
                if wins && prios <> [] then begin
                  let out =
                    List.map (fun u -> (u, [| tag_in_mis |])) st.active_nbrs
                  in
                  { Network.state = { st with status = Mis_in }; out; halt = true }
                end
                else { Network.state = { st with prios }; out = []; halt = false }
              end
              else begin
                (* sub = 2: winner announcements from sub-round 1 arrive
                   here; newly covered vertices tell the rest to prune them *)
                let winners =
                  List.filter_map
                    (fun (s, p) -> if p.(0) = tag_in_mis then Some s else None)
                    inbox
                in
                if winners <> [] then begin
                  let out =
                    List.filter_map
                      (fun u ->
                        if List.mem u winners then None
                        else Some (u, [| tag_removed |]))
                      st.active_nbrs
                  in
                  {
                    Network.state = { st with status = Mis_covered };
                    out;
                    halt = true;
                  }
                end
                else { Network.state = st; out = []; halt = false }
              end);
    }
  in
  let states, stats = Network.run ~word_limit:4 ?trace ?metrics ?engine ?jobs g program in
  (Array.map (fun s -> s.status = Mis_in) states, stats)

(* ---------- distributed Bellman–Ford ---------- *)

type bf_state = { bf_dist : int; bf_parent : int }

let bellman_ford ?trace ?metrics ?engine ?jobs g ~source =
  if source < 0 || source >= Graph.n g then
    invalid_arg "Programs.bellman_ford: bad source";
  let program =
    {
      Network.init = (fun _ v ->
          if v = source then { bf_dist = 0; bf_parent = -1 }
          else { bf_dist = max_int; bf_parent = -1 });
      round =
        (fun g ~round ~me st inbox ->
          (* relax against the incoming announcements *)
          let improved = ref (round = 0 && me = source) in
          let st = ref st in
          List.iter
            (fun (s, p) ->
              match Graph.find_edge g me s with
              | None -> ()
              | Some eid ->
                  let nd = p.(0) + Graph.weight g eid in
                  if nd < !st.bf_dist then begin
                    st := { bf_dist = nd; bf_parent = s };
                    improved := true
                  end)
            inbox;
          let st = !st in
          if !improved then begin
            let out = out_to_all g me [| st.bf_dist |] in
            { Network.state = st; out; halt = true }
          end
          else { Network.state = st; out = []; halt = true });
    }
  in
  let states, stats = Network.run ?trace ?metrics ?engine ?jobs g program in
  ( ( Array.map (fun s -> s.bf_dist) states,
      Array.map (fun s -> s.bf_parent) states ),
    stats )

(* ---------- spanning forest by min-id flooding ---------- *)

type forest_state = { fr_root : int; fr_parent_eid : int }

let spanning_forest ?trace ?metrics ?engine ?jobs g =
  let program =
    {
      Network.init = (fun _ v -> { fr_root = v; fr_parent_eid = -1 });
      round =
        (fun g ~round ~me st inbox ->
          let improved = ref (round = 0) in
          let st = ref st in
          List.iter
            (fun (s, p) ->
              if p.(0) < !st.fr_root then begin
                match Graph.find_edge g me s with
                | Some eid ->
                    st := { fr_root = p.(0); fr_parent_eid = eid };
                    improved := true
                | None -> ()
              end)
            inbox;
          let st = !st in
          if !improved then begin
            let out = out_to_all g me [| st.fr_root |] in
            { Network.state = st; out; halt = true }
          end
          else { Network.state = st; out = []; halt = true });
    }
  in
  let states, stats = Network.run ?trace ?metrics ?engine ?jobs g program in
  let eids =
    Array.to_list states
    |> List.filter_map (fun s ->
           if s.fr_parent_eid >= 0 then Some s.fr_parent_eid else None)
  in
  (eids, stats)
