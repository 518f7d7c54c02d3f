(** Parallel-copy sequentialization.

    A block's phis, viewed from one predecessor, are a single parallel copy
    [(d1,...,dk) <- (s1,...,sk)]. Emitting them as sequential copies is
    only correct in an order where no pending read sees an already-clobbered
    register; a pure cycle (the classic phi swap) needs one temporary.
    Used by SSA destruction and by forward propagation's phi removal.

    The pending copies sit in arrays with a count of the pending copies
    that read each one's destination. A copy whose destination nobody
    reads is ready; the smallest ready destination goes first. When none is
    ready, every pending destination is read: the smallest is saved in a
    temporary and its readers read that instead. O(k²) for k copies. *)

let sequentialize ~fresh copies =
  let k = List.length copies in
  let dst = Array.make k 0 and src = Array.make k 0 in
  (* Self-copies vanish; a later copy to a destination replaces an
     earlier one. *)
  let n =
    List.fold_left
      (fun n (d, s) ->
        if d = s then n
        else begin
          let i = ref 0 in
          while !i < n && dst.(!i) <> d do incr i done;
          dst.(!i) <- d;
          src.(!i) <- s;
          if !i = n then n + 1 else n
        end)
      0 copies
  in
  let pending = Array.make n true and readers = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if src.(j) = dst.(i) then readers.(i) <- readers.(i) + 1
    done
  done;
  let out = ref [] in
  for _ = 1 to n do
    let ready = ref (-1) and least = ref (-1) in
    for i = 0 to n - 1 do
      if pending.(i) then begin
        if !least < 0 || dst.(i) < dst.(!least) then least := i;
        if readers.(i) = 0 && (!ready < 0 || dst.(i) < dst.(!ready)) then ready := i
      end
    done;
    if !ready < 0 then begin
      (* A pure cycle: save one register in a temporary and redirect its
         readers there; it is then the only ready copy. *)
      let i = !least in
      let t = fresh () in
      out := (t, dst.(i)) :: !out;
      for j = 0 to n - 1 do
        if pending.(j) && src.(j) = dst.(i) then src.(j) <- t
      done;
      readers.(i) <- 0;
      ready := i
    end;
    let i = !ready in
    out := (dst.(i), src.(i)) :: !out;
    pending.(i) <- false;
    for j = 0 to n - 1 do
      if pending.(j) && dst.(j) = src.(i) then readers.(j) <- readers.(j) - 1
    done
  done;
  List.rev !out
