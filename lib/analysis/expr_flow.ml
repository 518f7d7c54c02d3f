(** The shared expression-level data-flow client. See the interface. *)

open Epre_util
open Epre_ir

type t = {
  uni : Expr_universe.t;
  local : Expr_universe.local;
  width : int;
  cfg : Cfg.t;
}

let build ?uni (r : Routine.t) =
  let uni = match uni with Some uni -> uni | None -> Expr_universe.build r in
  let width = Expr_universe.size uni in
  let local = Expr_universe.compute_local uni r in
  { uni; local; width; cfg = r.Routine.cfg }

let system t ~gen ~meet =
  {
    Dataflow.width = t.width;
    gen = (fun id -> gen.(id));
    kill = (fun id -> t.local.Expr_universe.kill.(id));
    boundary = Bitset.create t.width;
    meet;
  }

let availability t =
  Dataflow.solve_forward t.cfg
    (system t ~gen:t.local.Expr_universe.comp ~meet:Dataflow.Inter)

let anticipability t =
  Dataflow.solve_backward t.cfg
    (system t ~gen:t.local.Expr_universe.antloc ~meet:Dataflow.Inter)

let partial_availability t =
  Dataflow.solve_forward t.cfg
    (system t ~gen:t.local.Expr_universe.comp ~meet:Dataflow.Union)

let partial_anticipability t =
  Dataflow.solve_backward t.cfg
    (system t ~gen:t.local.Expr_universe.antloc ~meet:Dataflow.Union)

type placement = {
  laterin : Bitset.t array;
  later : int -> int -> Bitset.t;
  later_virtual : Bitset.t;
}

let lcm_placement t =
  let cfg = t.cfg in
  let width = t.width in
  let antloc = t.local.Expr_universe.antloc in
  let kill = t.local.Expr_universe.kill in
  let avail = availability t in
  let ant = anticipability t in
  let antin = ant.Dataflow.ins and antout = ant.Dataflow.outs in
  let avout = avail.Dataflow.outs in
  let order = Order.compute cfg in
  let rpo = Order.reverse_postorder order in
  let preds = Cfg.preds cfg in
  let entry = Cfg.entry cfg in
  let nblocks = Cfg.num_blocks cfg in
  (* guard.(i) = ¬AVOUT(i) ∧ (KILL(i) ∨ ¬ANTOUT(i)), the source-block
     half of EARLIEST, once per block. *)
  let guard =
    Array.init nblocks (fun i ->
        let g = Bitset.full width in
        Bitset.diff_into ~dst:g antout.(i);
        Bitset.union_into ~dst:g kill.(i);
        Bitset.diff_into ~dst:g avout.(i);
        g)
  in
  (* EARLIEST over a real edge (i, j) = ANTIN(j) ∧ guard(i); fresh. *)
  let earliest i j =
    let s = Bitset.copy antin.(j) in
    Bitset.inter_into ~dst:s guard.(i);
    s
  in
  (* in_edges.(j): j's reachable in-edges (i, EARLIEST(i, j)), EARLIEST
     computed once per edge. *)
  let in_edges = Array.make nblocks [] in
  Array.iter
    (fun j ->
      in_edges.(j) <-
        List.filter_map
          (fun i -> if Order.is_reachable order i then Some (i, earliest i j) else None)
          preds.(j))
    rpo;
  let laterin = Array.init nblocks (fun _ -> Bitset.full width) in
  (* LATER over a real edge, given current laterin; fresh. *)
  let later i j =
    let s = Bitset.copy laterin.(i) in
    Bitset.diff_into ~dst:s antloc.(i);
    Bitset.union_into ~dst:s
      (match List.assoc_opt i in_edges.(j) with Some e -> e | None -> earliest i j);
    s
  in
  (* Virtual entry edge: LATER(V, entry) = ANTIN(entry). *)
  let later_virtual = Bitset.copy antin.(entry) in
  (* LATERIN(j) = ∩ over in-edges (i, j) of LATER(i, j), where
     LATER(i, j) = EARLIEST(i, j) ∨ (LATERIN(i) ∧ ¬ANTLOC(i)); the
     virtual edge joins the entry's meet. No in-edge gives the empty set. *)
  let acc = Bitset.create width and edge = Bitset.create width in
  let first = ref true in
  let meet s =
    if !first then begin
      Bitset.assign ~dst:acc s;
      first := false
    end
    else Bitset.inter_into ~dst:acc s
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun j ->
        first := true;
        if j = entry then meet later_virtual;
        List.iter
          (fun (i, e) ->
            Bitset.assign ~dst:edge laterin.(i);
            Bitset.diff_into ~dst:edge antloc.(i);
            Bitset.union_into ~dst:edge e;
            meet edge)
          in_edges.(j);
        if !first then Bitset.clear acc;
        if not (Bitset.equal acc laterin.(j)) then begin
          Bitset.assign ~dst:laterin.(j) acc;
          changed := true
        end)
      rpo
  done;
  { laterin; later; later_virtual }

let lcm_delete t =
  let p = lcm_placement t in
  Array.mapi
    (fun id li ->
      let d = Bitset.copy t.local.Expr_universe.antloc.(id) in
      Bitset.diff_into ~dst:d li;
      d)
    p.laterin
