(** The shared expression-level data-flow client. See the interface. *)

open Epre_util
open Epre_ir

type t = {
  uni : Expr_universe.t;
  local : Expr_universe.local;
  width : int;
  cfg : Cfg.t;
  graph : Dataflow.graph;
  avail : Dataflow.result Lazy.t;
}

let system ~width ~kill ~gen ~meet =
  { Dataflow.width; gen; kill; boundary = Bitset.create width; meet }

let lazy_availability graph ~width (local : Expr_universe.local) =
  lazy
    (Dataflow.solve_forward graph
       (system ~width ~kill:local.kill ~gen:local.comp ~meet:Dataflow.Inter))

let make ~uni ~graph (r : Routine.t) =
  let width = Expr_universe.size uni in
  let local = Expr_universe.compute_local uni r in
  { uni; local; width; cfg = r.Routine.cfg; graph;
    avail = lazy_availability graph ~width local }

let refresh t (r : Routine.t) =
  let local = Expr_universe.refresh_local t.uni t.local r in
  if local == t.local then t
  else { t with local; avail = lazy_availability t.graph ~width:t.width local }

let build (r : Routine.t) =
  make ~uni:(Expr_universe.build r) ~graph:(Dataflow.graph r.Routine.cfg) r

let solve t solver ~gen ~meet =
  solver t.graph (system ~width:t.width ~kill:t.local.Expr_universe.kill ~gen ~meet)

let availability t = Lazy.force t.avail

let anticipability t =
  solve t Dataflow.solve_backward ~gen:t.local.Expr_universe.antloc ~meet:Dataflow.Inter

let partial_availability t =
  solve t Dataflow.solve_forward ~gen:t.local.Expr_universe.comp ~meet:Dataflow.Union

type placement = {
  laterin : Bitset.t array;
  later : int -> int -> Bitset.t;
  later_virtual : Bitset.t;
}

let lcm_placement t =
  let width = t.width in
  let antloc = t.local.Expr_universe.antloc in
  let kill = t.local.Expr_universe.kill in
  let avout = (availability t).Dataflow.outs in
  let ant = anticipability t in
  let antin = ant.Dataflow.ins and antout = ant.Dataflow.outs in
  let { Dataflow.preds; entry; _ } = t.graph in
  let nblocks = Array.length preds in
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
  (* earliest_in.(j).(k): EARLIEST over the edge from [preds.(j).(k)],
     computed once per reachable edge. *)
  let earliest_in = Array.mapi (fun j -> Array.map (fun i -> earliest i j)) preds in
  let laterin = Array.init nblocks (fun _ -> Bitset.full width) in
  (* LATER over a real edge, given current laterin; fresh. *)
  let later i j =
    let s = Bitset.copy laterin.(i) in
    Bitset.diff_into ~dst:s antloc.(i);
    let rec settled k =
      if k = Array.length preds.(j) then earliest i j
      else if preds.(j).(k) = i then earliest_in.(j).(k)
      else settled (k + 1)
    in
    Bitset.union_into ~dst:s (settled 0);
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
  Dataflow.iterate t.graph ~forward:true (fun j ->
      first := true;
      if j = entry then meet later_virtual;
      Array.iteri
        (fun k i ->
          Bitset.assign ~dst:edge laterin.(i);
          Bitset.diff_into ~dst:edge antloc.(i);
          Bitset.union_into ~dst:edge earliest_in.(j).(k);
          meet edge)
        preds.(j);
      if !first then Bitset.clear acc;
      if Bitset.equal acc laterin.(j) then false
      else begin
        Bitset.assign ~dst:laterin.(j) acc;
        true
      end);
  { laterin; later; later_virtual }

let lcm_delete t =
  let p = lcm_placement t in
  Array.mapi
    (fun id li ->
      let d = Bitset.copy t.local.Expr_universe.antloc.(id) in
      Bitset.diff_into ~dst:d li;
      d)
    p.laterin
