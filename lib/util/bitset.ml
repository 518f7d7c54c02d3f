(* Element [i] lives in bit [i mod bpw] of word [i / bpw]. A word holds
   [bpw] = 63 bits, every bit of a 64-bit OCaml [int], so [-1] is a full
   word. [bpw] is a literal so the divisions compile to multiplications.
   Bits at or above [n] in the last word are always zero: [full] masks
   them and every other operation preserves them, which keeps [equal],
   [count] and [is_empty] exact. *)
type t = { words : int array; n : int }

let bpw = 63

let words_for n = (n + bpw - 1) / bpw

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative width";
  { words = Array.make (words_for n) 0; n }

let width s = s.n

let check s i =
  if i < 0 || i >= s.n then
    invalid_arg (Printf.sprintf "Bitset: element %d out of universe [0,%d)" i s.n)

let mem s i =
  check s i;
  (Array.unsafe_get s.words (i / bpw) lsr (i mod bpw)) land 1 <> 0

let add s i =
  check s i;
  let w = i / bpw in
  Array.unsafe_set s.words w (Array.unsafe_get s.words w lor (1 lsl (i mod bpw)))

let remove s i =
  check s i;
  let w = i / bpw in
  Array.unsafe_set s.words w (Array.unsafe_get s.words w land lnot (1 lsl (i mod bpw)))

let copy s = { words = Array.copy s.words; n = s.n }

let equal a b =
  a.n = b.n
  &&
  let rec go k = k < 0 || (Array.unsafe_get a.words k = Array.unsafe_get b.words k && go (k - 1)) in
  go (Array.length a.words - 1)

let is_empty s =
  let rec go k = k < 0 || (Array.unsafe_get s.words k = 0 && go (k - 1)) in
  go (Array.length s.words - 1)

let full n =
  let s = { words = Array.make (words_for n) (-1); n } in
  let rem = n mod bpw in
  if rem <> 0 then s.words.(Array.length s.words - 1) <- (1 lsl rem) - 1;
  s

let same_width a b =
  if a.n <> b.n then invalid_arg "Bitset: width mismatch"

let union_into ~dst src =
  same_width dst src;
  let d = dst.words and s = src.words in
  for k = 0 to Array.length d - 1 do
    Array.unsafe_set d k (Array.unsafe_get d k lor Array.unsafe_get s k)
  done

let inter_into ~dst src =
  same_width dst src;
  let d = dst.words and s = src.words in
  for k = 0 to Array.length d - 1 do
    Array.unsafe_set d k (Array.unsafe_get d k land Array.unsafe_get s k)
  done

let diff_into ~dst src =
  same_width dst src;
  let d = dst.words and s = src.words in
  for k = 0 to Array.length d - 1 do
    Array.unsafe_set d k (Array.unsafe_get d k land lnot (Array.unsafe_get s k))
  done

let assign ~dst src =
  same_width dst src;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let intersects a b =
  same_width a b;
  let rec go k =
    k >= 0 && (Array.unsafe_get a.words k land Array.unsafe_get b.words k <> 0 || go (k - 1))
  in
  go (Array.length a.words - 1)

let clear s = Array.fill s.words 0 (Array.length s.words) 0

(* Bits set in a 32-bit half word, by SWAR summing. *)
let pop32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

let popcount w = pop32 (w land 0xFFFFFFFF) + pop32 (w lsr 32)

let count s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

(* Index of the lowest set bit of [w <> 0], by binary search. *)
let lowest_bit w =
  let w = ref (w land (-w)) and i = ref 0 in
  if !w land 0xFFFF_FFFF = 0 then (w := !w lsr 32; i := 32);
  if !w land 0xFFFF = 0 then (w := !w lsr 16; i := !i + 16);
  if !w land 0xFF = 0 then (w := !w lsr 8; i := !i + 8);
  if !w land 0xF = 0 then (w := !w lsr 4; i := !i + 4);
  if !w land 0x3 = 0 then (w := !w lsr 2; i := !i + 2);
  if !w land 0x1 = 0 then i := !i + 1;
  !i

let iter f s =
  let words = s.words in
  for k = 0 to Array.length words - 1 do
    let w = ref (Array.unsafe_get words k) in
    while !w <> 0 do
      f ((k * bpw) + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

type index = { bits : int array; below : int array; size : int }

let index s =
  let bits = Array.copy s.words in
  let below = Array.make (Array.length bits) 0 in
  let c = ref 0 in
  Array.iteri
    (fun k w ->
      below.(k) <- !c;
      c := !c + popcount w)
    bits;
  { bits; below; size = !c }

let rank ix i =
  let k = i / bpw in
  if i < 0 || k >= Array.length ix.bits then -1
  else
    let w = Array.unsafe_get ix.bits k and b = i mod bpw in
    if (w lsr b) land 1 = 0 then -1
    else Array.unsafe_get ix.below k + popcount (w land ((1 lsl b) - 1))

let index_size ix = ix.size

let elements s =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc
