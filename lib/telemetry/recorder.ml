(** The span store: one buffer per domain, filled while a trace records.
    See the interface for the model. *)

type entry = {
  ts_ns : int64;
  domain : int;
  event : string;
  fields : (string * Tjson.t) list;
}

type buffer = {
  lock : Mutex.t;
  mutable entries : entry list;  (** newest first *)
}

let slots = 64 (* power of two; domain ids wrap around it *)

let buffers = Array.init slots (fun _ -> { lock = Mutex.create (); entries = [] })

(* Probed on hot paths (every span open and close). *)
let on = ref false

let set_trace b =
  on := b;
  if not b then
    Array.iter
      (fun b ->
        Mutex.lock b.lock;
        b.entries <- [];
        Mutex.unlock b.lock)
      buffers

let enabled () = !on

(* ------------------------------------------------------------------ *)
(* Correlation context *)

(* The job (or routine) id every event in the current dynamic extent
   belongs to. Domain-local, so a pool worker carries the id of the job
   it is executing, not of whatever the submitter is doing. *)
let corr_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let corr () = Domain.DLS.get corr_key

let with_corr id f =
  let old = Domain.DLS.get corr_key in
  Domain.DLS.set corr_key (Some id);
  Fun.protect ~finally:(fun () -> Domain.DLS.set corr_key old) f

(* ------------------------------------------------------------------ *)
(* Recording *)

let note ?(fields = []) event =
  if !on then begin
    let domain = (Domain.self () :> int) in
    let e = { ts_ns = Monotonic_clock.now (); domain; event; fields } in
    let b = buffers.(domain land (slots - 1)) in
    Mutex.lock b.lock;
    (* Re-probed under the lock: a [set_trace false] that has already
       emptied this buffer must not see it refilled. *)
    if !on then b.entries <- e :: b.entries;
    Mutex.unlock b.lock
  end

let snapshot () =
  let per_domain =
    Array.to_list buffers
    |> List.concat_map (fun b ->
           Mutex.lock b.lock;
           let es = b.entries in
           Mutex.unlock b.lock;
           List.rev es)
  in
  (* Stable: a domain's entries with equal timestamps keep their order. *)
  List.stable_sort
    (fun a b ->
      match Int64.compare a.ts_ns b.ts_ns with
      | 0 -> compare a.domain b.domain
      | c -> c)
    per_domain
