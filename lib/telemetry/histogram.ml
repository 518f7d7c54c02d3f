(** Log-scale latency histograms. See the interface for the bucket
    scheme; the sharding protocol is described inline.

    Recording is contention-free in the steady state: each live domain
    holds its own shard slot, so the per-shard mutex is uncontended
    unless more than [shard_slots] domains exist.
    Merging sums integer bucket counts, so a merged read is the same
    whatever order the shards filled in. *)

(* HDR-style log-linear buckets: [sub_count] sub-buckets per power of
   two, giving a worst-case relative error of 1/sub_count = 12.5%.
   Values 0..7 get exact unit buckets; a value with highest set bit at
   position m >= 3 lands in group (m - 3 + 1), sub-bucket = the three
   bits below the leading one. *)
let sub_bits = 3

let sub_count = 1 lsl sub_bits

let num_buckets = sub_count * 61 (* covers every non-negative OCaml int *)

let bucket_of_value v =
  if v < 0 then 0
  else if v < sub_count then v
  else begin
    let msb =
      let rec go n i = if n <= 1 then i else go (n lsr 1) (i + 1) in
      go v 0
    in
    let shift = msb - sub_bits in
    let sub = (v lsr shift) land (sub_count - 1) in
    min (((shift + 1) * sub_count) + sub) (num_buckets - 1)
  end

let bucket_bounds i =
  let i = max 0 (min i (num_buckets - 1)) in
  if i < sub_count then (i, i)
  else begin
    let shift = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    let lo = (sub_count + sub) lsl shift in
    (lo, lo + (1 lsl shift) - 1)
  end

type shard = {
  lock : Mutex.t;
  mutable counts : int array;  (** [[||]] until the shard's first record *)
  mutable n : int;
  mutable sum : int;
  mutable max_v : int;
}

let shard_slots = 64

(* Slots are handed out, not derived from domain ids: OCaml never reuses
   a domain id, so id-derived shards gave every worker of every new pool
   a fresh shard, and a fresh bucket array in each histogram it recorded
   into — up to 64 per histogram in a process that keeps creating
   pools. A domain takes the lowest free slot on its first record and
   frees it when it exits; a later domain then records into the same
   shard, whose counts stay in every merge. Past [shard_slots] live
   domains the last slot is shared, which its mutex keeps correct. *)
let slot_lock = Mutex.create ()

let slot_held = Array.make shard_slots false

let slot_key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let slot () =
  match Domain.DLS.get slot_key with
  | Some i -> i
  | None ->
    Mutex.lock slot_lock;
    let rec lowest i =
      if i = shard_slots - 1 || not slot_held.(i) then i else lowest (i + 1)
    in
    let i = lowest 0 in
    slot_held.(i) <- true;
    Mutex.unlock slot_lock;
    Domain.DLS.set slot_key (Some i);
    Domain.at_exit (fun () ->
        Mutex.lock slot_lock;
        slot_held.(i) <- false;
        Mutex.unlock slot_lock);
    i

type t = { shards : shard array }

let create () =
  { shards =
      Array.init shard_slots (fun _ ->
          { lock = Mutex.create (); counts = [||]; n = 0; sum = 0; max_v = 0 })
  }

let record t v =
  let v = if v < 0 then 0 else v in
  let s = t.shards.(slot ()) in
  Mutex.lock s.lock;
  if Array.length s.counts = 0 then s.counts <- Array.make num_buckets 0;
  let b = bucket_of_value v in
  s.counts.(b) <- s.counts.(b) + 1;
  s.n <- s.n + 1;
  s.sum <- s.sum + v;
  if v > s.max_v then s.max_v <- v;
  Mutex.unlock s.lock

type merged = { counts : int array; count : int; sum : int; max_value : int }

let merged t =
  let counts = Array.make num_buckets 0 in
  let count = ref 0 and sum = ref 0 and max_value = ref 0 in
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      if Array.length s.counts > 0 then
        Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.counts;
      count := !count + s.n;
      sum := !sum + s.sum;
      if s.max_v > !max_value then max_value := s.max_v;
      Mutex.unlock s.lock)
    t.shards;
  { counts; count = !count; sum = !sum; max_value = !max_value }

let quantile m q =
  if m.count = 0 then 0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank =
      max 1 (min m.count (int_of_float (ceil (q *. float_of_int m.count))))
    in
    let acc = ref 0 and result = ref m.max_value in
    (try
       for i = 0 to num_buckets - 1 do
         acc := !acc + m.counts.(i);
         if !acc >= rank then begin
           result := snd (bucket_bounds i);
           raise Exit
         end
       done
     with Exit -> ());
    (* The top bucket's upper edge can overshoot what was actually
       recorded; the exact max is tracked, so clamp to it. *)
    min !result m.max_value
  end

let mean m = if m.count = 0 then 0.0 else float_of_int m.sum /. float_of_int m.count

(* ------------------------------------------------------------------ *)
(* Registry *)

(* Copy-on-write name table: readers probe an immutable assoc list via
   one [Atomic.get] (no lock on the hot path — the per-pass and per-job
   observations from pool workers); writers copy under [registry_lock]
   and publish atomically. *)
let registry : (string * t) list Atomic.t = Atomic.make []

let registry_lock = Mutex.create ()

let handle ~name =
  match List.assoc_opt name (Atomic.get registry) with
  | Some h -> h
  | None ->
    Mutex.lock registry_lock;
    let h =
      match List.assoc_opt name (Atomic.get registry) with
      | Some h -> h
      | None ->
        let h = create () in
        Atomic.set registry ((name, h) :: Atomic.get registry);
        h
    in
    Mutex.unlock registry_lock;
    h

let observe ~name v = record (handle ~name) v

let observe_since ~name t0 =
  let now = Monotonic_clock.now () in
  observe ~name (Int64.to_int (Int64.sub now t0))

let snapshot () =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map (fun (name, h) -> (name, merged h)) (Atomic.get registry))

let reset_for_testing () =
  Mutex.lock registry_lock;
  Atomic.set registry [];
  Mutex.unlock registry_lock

(* ------------------------------------------------------------------ *)
(* Exact percentiles over a sorted sample (the bench helper, shared so
   the service quantiles and the bench reports agree on the maths). *)

let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))
