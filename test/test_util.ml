(** Tests for [Epre_util]: Vec, Bitset, Union_find. *)

open Epre_util

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check int) "empty length" 0 (Vec.length v);
  let i0 = Vec.push v "a" in
  let i1 = Vec.push v "b" in
  Alcotest.(check int) "first index" 0 i0;
  Alcotest.(check int) "second index" 1 i1;
  Alcotest.(check string) "get" "b" (Vec.get v 1);
  Vec.set v 0 "c";
  Alcotest.(check string) "set" "c" (Vec.get v 0);
  Alcotest.(check (list string)) "to_list" [ "c"; "b" ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 3 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index -1 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v (-1)))

let test_vec_copy_independent () =
  let v = Vec.of_list [ 1; 2 ] in
  let w = Vec.copy v in
  Vec.set w 0 99;
  Alcotest.(check int) "original unchanged" 1 (Vec.get v 0);
  Alcotest.(check int) "copy changed" 99 (Vec.get w 0)

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "spot check" 567 (Vec.get v 567);
  Alcotest.(check int) "fold" (999 * 1000 / 2) (Vec.fold_left ( + ) 0 v)

let vec_roundtrip =
  Helpers.qcheck_case "Vec" "of_list/to_list roundtrip"
    QCheck2.Gen.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let s = Bitset.create 70 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 69;
  Bitset.add s 31;
  Alcotest.(check bool) "mem 0" true (Bitset.mem s 0);
  Alcotest.(check bool) "mem 69" true (Bitset.mem s 69);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "count" 3 (Bitset.count s);
  Bitset.remove s 31;
  Alcotest.(check (list int)) "elements" [ 0; 69 ] (Bitset.elements s)

let test_bitset_ops () =
  let a = Bitset.create 16 and b = Bitset.create 16 in
  List.iter (Bitset.add a) [ 1; 2; 3 ];
  List.iter (Bitset.add b) [ 2; 3; 4 ];
  let u = Bitset.copy a in
  Bitset.union_into ~dst:u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~dst:i b;
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Bitset.diff_into ~dst:d b;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d)

let test_bitset_full () =
  let f = Bitset.full 13 in
  Alcotest.(check int) "count" 13 (Bitset.count f);
  (* The unused high bits of the last word must be clear so that [equal]
     against an explicitly built full set holds. *)
  let g = Bitset.create 13 in
  for i = 0 to 12 do
    Bitset.add g i
  done;
  Alcotest.(check bool) "equal" true (Bitset.equal f g)

let test_bitset_width_mismatch () =
  let a = Bitset.create 8 and b = Bitset.create 9 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: width mismatch") (fun () ->
      Bitset.union_into ~dst:a b)

let test_bitset_zero_width () =
  let s = Bitset.create 0 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Alcotest.(check bool) "full empty too" true (Bitset.is_empty (Bitset.full 0))

module IntSet = Set.Make (Int)

let bitset_model_gen =
  QCheck2.Gen.(list (int_bound 63))

let bitset_of_list xs =
  let s = Bitset.create 64 in
  List.iter (Bitset.add s) xs;
  s

let bitset_union_model =
  Helpers.qcheck_case "Bitset" "union agrees with Set.union"
    QCheck2.Gen.(pair bitset_model_gen bitset_model_gen)
    (fun (xs, ys) ->
      let s = bitset_of_list xs in
      Bitset.union_into ~dst:s (bitset_of_list ys);
      IntSet.equal
        (IntSet.of_list (Bitset.elements s))
        (IntSet.union (IntSet.of_list xs) (IntSet.of_list ys)))

let bitset_diff_model =
  Helpers.qcheck_case "Bitset" "diff agrees with Set.diff"
    QCheck2.Gen.(pair bitset_model_gen bitset_model_gen)
    (fun (xs, ys) ->
      let s = bitset_of_list xs in
      Bitset.diff_into ~dst:s (bitset_of_list ys);
      IntSet.equal
        (IntSet.of_list (Bitset.elements s))
        (IntSet.diff (IntSet.of_list xs) (IntSet.of_list ys)))

let bitset_count_model =
  Helpers.qcheck_case "Bitset" "count = cardinality" bitset_model_gen (fun xs ->
      Bitset.count (bitset_of_list xs) = IntSet.cardinal (IntSet.of_list xs))

(* Model-based: random operation sequences on two sets of one width,
   mirrored on [bool array]s. Widths cover 0-200 and the word edges
   62-64 and 125-127. *)
type bitset_op =
  | Add of int * int  (** set, element *)
  | Remove of int * int
  | Union of int * int  (** dst, src *)
  | Inter of int * int
  | Diff of int * int
  | Assign of int * int
  | Clear of int
  | Full of int

let bitset_ops_gen =
  QCheck2.Gen.(
    let* n = oneof [ int_range 0 200; oneofl [ 62; 63; 64; 125; 126; 127 ] ] in
    let set = int_bound 1 in
    let elt =
      if n = 0 then []
      else
        [ map2 (fun s i -> Add (s, i)) set (int_bound (n - 1));
          map2 (fun s i -> Remove (s, i)) set (int_bound (n - 1)) ]
    in
    let op =
      oneof
        (elt
        @ [ map2 (fun d s -> Union (d, s)) set set; map2 (fun d s -> Inter (d, s)) set set;
            map2 (fun d s -> Diff (d, s)) set set; map2 (fun d s -> Assign (d, s)) set set;
            map (fun s -> Clear s) set; map (fun s -> Full s) set ])
    in
    let* ops = list_size (int_range 0 60) op in
    return (n, ops))

let bitset_matches_model (n, ops) =
  let sets = Array.init 2 (fun _ -> Bitset.create n) in
  let model = Array.init 2 (fun _ -> Array.make n false) in
  let zip f d s = model.(d) <- Array.map2 f model.(d) model.(s) in
  let step = function
    | Add (s, i) -> Bitset.add sets.(s) i; model.(s).(i) <- true
    | Remove (s, i) -> Bitset.remove sets.(s) i; model.(s).(i) <- false
    | Union (d, s) -> Bitset.union_into ~dst:sets.(d) sets.(s); zip ( || ) d s
    | Inter (d, s) -> Bitset.inter_into ~dst:sets.(d) sets.(s); zip ( && ) d s
    | Diff (d, s) -> Bitset.diff_into ~dst:sets.(d) sets.(s); zip (fun a b -> a && not b) d s
    | Assign (d, s) -> Bitset.assign ~dst:sets.(d) sets.(s); model.(d) <- Array.copy model.(s)
    | Clear s -> Bitset.clear sets.(s); model.(s) <- Array.make n false
    | Full s -> sets.(s) <- Bitset.full n; model.(s) <- Array.make n true
  in
  let members m = List.filter (fun i -> m.(i)) (List.init n Fun.id) in
  let agrees k =
    let s = sets.(k) and m = model.(k) in
    let elems = members m in
    Bitset.width s = n
    && List.for_all (fun i -> Bitset.mem s i = m.(i)) (List.init n Fun.id)
    && Bitset.count s = List.length elems
    && Bitset.is_empty s = (elems = [])
    && Bitset.elements s = elems
    && Bitset.fold (fun i acc -> i :: acc) s [] = List.rev elems
  in
  let pair_agrees () =
    Bitset.equal sets.(0) sets.(1) = (model.(0) = model.(1))
    && Bitset.intersects sets.(0) sets.(1)
       = Array.exists Fun.id (Array.map2 ( && ) model.(0) model.(1))
  in
  (* The complement of the empty set, built one element at a time. *)
  let full_is_complement_of_empty () =
    let all = Bitset.create n in
    for i = 0 to n - 1 do
      Bitset.add all i
    done;
    Bitset.equal (Bitset.full n) all && Bitset.count (Bitset.full n) = n
  in
  full_is_complement_of_empty ()
  && List.for_all
       (fun op ->
         step op;
         agrees 0 && agrees 1 && pair_agrees ())
       ops

let bitset_model_sequences =
  Helpers.qcheck_case ~count:300 "Bitset" "op sequences agree with a bool-array model"
    bitset_ops_gen bitset_matches_model

(* ------------------------------------------------------------------ *)
(* Union_find *)

let test_uf_basic () =
  let uf = Union_find.create 10 in
  Alcotest.(check bool) "initially apart" false (Union_find.same uf 1 2);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "joined" true (Union_find.same uf 1 2);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 1 3);
  Alcotest.(check bool) "others untouched" false (Union_find.same uf 1 4)

let test_uf_keep_first () =
  let uf = Union_find.create 10 in
  Union_find.union_keep_first uf 7 3;
  Alcotest.(check int) "representative is first" 7 (Union_find.find uf 3);
  Union_find.union_keep_first uf 7 5;
  Alcotest.(check int) "still first" 7 (Union_find.find uf 5)

let uf_equivalence =
  Helpers.qcheck_case "Union_find" "union builds an equivalence"
    QCheck2.Gen.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* reflexive, symmetric, and consistent with find *)
      List.for_all
        (fun (a, b) ->
          Union_find.same uf a b
          && Union_find.find uf a = Union_find.find uf b)
        pairs)

let suite =
  [
    Alcotest.test_case "vec: push/get/set/to_list" `Quick test_vec_basic;
    Alcotest.test_case "vec: bounds checking" `Quick test_vec_bounds;
    Alcotest.test_case "vec: copy independence" `Quick test_vec_copy_independent;
    Alcotest.test_case "vec: growth to 1000" `Quick test_vec_growth;
    vec_roundtrip;
    Alcotest.test_case "bitset: add/remove/mem/count" `Quick test_bitset_basic;
    Alcotest.test_case "bitset: union/inter/diff" `Quick test_bitset_ops;
    Alcotest.test_case "bitset: full masks high bits" `Quick test_bitset_full;
    Alcotest.test_case "bitset: width mismatch rejected" `Quick test_bitset_width_mismatch;
    Alcotest.test_case "bitset: zero width" `Quick test_bitset_zero_width;
    bitset_union_model;
    bitset_diff_model;
    bitset_count_model;
    bitset_model_sequences;
    Alcotest.test_case "union_find: union/same" `Quick test_uf_basic;
    Alcotest.test_case "union_find: keep-first representative" `Quick test_uf_keep_first;
    uf_equivalence;
  ]
