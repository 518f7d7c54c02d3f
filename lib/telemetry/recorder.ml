(** The event store: one buffer per domain, a bounded ring for flight
    dumps that also keeps every event while a trace records. See the
    interface for the model. *)

module J = Tjson

let now_ns () = Monotonic_clock.now ()

type entry = {
  ts_ns : int64;
  domain : int;
  kind : string;
  level : string;
  event : string;
  corr : string option;
  fields : (string * J.t) list;
}

let dummy =
  { ts_ns = 0L; domain = 0; kind = ""; level = ""; event = ""; corr = None;
    fields = [] }

(* The live entries are the last [min n (Array.length buf)] writes, entry
   [i] at slot [i mod (Array.length buf)]. *)
type buffer = {
  lock : Mutex.t;
  mutable buf : entry array;  (** [[||]] until the buffer's first event *)
  mutable n : int;  (** events written since the buffer was last reset *)
}

let slots = 64 (* power of two; domain ids wrap around it *)

let buffers =
  Array.init slots (fun _ -> { lock = Mutex.create (); buf = [||]; n = 0 })

(* Flight dumps: the dump directory, and the per-domain ring capacity. *)
let flight : string option ref = ref None

let ring_capacity = ref 256

(* Trace retention: buffers grow instead of wrapping. *)
let keep_all = ref false

(* Mirror of [!flight <> None || !keep_all], probed on hot paths (every
   log event and span closure). *)
let on = ref false

let config_lock = Mutex.create ()

let dump_lock = Mutex.create ()

(* The last [limit] live entries of [b], oldest first. Called with
   [b.lock] held. *)
let live ?(limit = max_int) b =
  let len = Array.length b.buf in
  let kept = min limit (min b.n len) in
  List.init kept (fun i -> b.buf.((b.n - kept + i) mod len))

(* Reset every buffer to its last [keep] entries. *)
let trim keep =
  Array.iter
    (fun b ->
      Mutex.lock b.lock;
      let kept = Array.of_list (live ~limit:keep b) in
      b.n <- Array.length kept;
      b.buf <-
        (if b.n = 0 then [||] else Array.append kept (Array.make (keep - b.n) dummy));
      Mutex.unlock b.lock)
    buffers

(* Apply a switch, then cut the buffers down to what the new mode keeps:
   everything while a trace records, the last [capacity] events for
   flight dumps alone, nothing when both are off. *)
let switch f =
  Mutex.lock config_lock;
  f ();
  on := !flight <> None || !keep_all;
  if not !keep_all then trim (if !flight = None then 0 else !ring_capacity);
  Mutex.unlock config_lock

let configure ?(capacity = 256) ~dir () =
  switch (fun () ->
      (* A fresh configuration starts from empty buffers. *)
      trim 0;
      flight := Some dir;
      ring_capacity := max 8 capacity)

let disable () = switch (fun () -> flight := None)

let set_trace b = switch (fun () -> keep_all := b)

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

let note ?(kind = "log") ?(level = "info") ?corr:c ?(fields = []) event =
  if !on then begin
    let domain = (Domain.self () :> int) in
    let corr = match c with Some _ -> c | None -> Domain.DLS.get corr_key in
    let e = { ts_ns = now_ns (); domain; kind; level; event; corr; fields } in
    let b = buffers.(domain land (slots - 1)) in
    Mutex.lock b.lock;
    (* Re-probed under the lock: a switch that turned the store off has
       already emptied this buffer. *)
    if !on then begin
      let len = Array.length b.buf in
      if len = 0 then b.buf <- Array.make !ring_capacity dummy
      else if !keep_all && b.n >= len then begin
        (* A trace keeps everything: unwrap into a buffer twice the size
           instead of overwriting the oldest entry. *)
        let kept = Array.of_list (live b) in
        b.buf <- Array.append kept (Array.make len dummy);
        b.n <- len
      end;
      b.buf.(b.n mod Array.length b.buf) <- e;
      b.n <- b.n + 1
    end;
    Mutex.unlock b.lock
  end

let collect ?limit () =
  let per_domain =
    Array.to_list buffers
    |> List.concat_map (fun b ->
           Mutex.lock b.lock;
           let es = live ?limit b in
           Mutex.unlock b.lock;
           es)
  in
  (* Stable: a domain's entries with equal timestamps keep their order. *)
  List.stable_sort
    (fun a b ->
      match Int64.compare a.ts_ns b.ts_ns with
      | 0 -> compare a.domain b.domain
      | c -> c)
    per_domain

let snapshot () = collect ()

let entry_to_json e =
  J.Obj
    ([ ("ts_ns", J.Int (Int64.to_int e.ts_ns));
       ("domain", J.Int e.domain);
       ("kind", J.Str e.kind);
       ("level", J.Str e.level);
       ("event", J.Str e.event) ]
    @ (match e.corr with Some c -> [ ("corr", J.Str c) ] | None -> [])
    @ match e.fields with [] -> [] | fs -> [ ("fields", J.Obj fs) ])

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o755 with Sys_error _ -> ()
    end
  in
  go path

let schema = "epre/flightrec/v1"

let dump ~reason ?corr:c () =
  match !flight with
  | None -> None
  | Some dir ->
    Mutex.lock dump_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock dump_lock)
      (fun () ->
        let pid = Unix.getpid () in
        let doc =
          J.Obj
            ([ ("schema", J.Str schema);
               ("pid", J.Int pid);
               ("reason", J.Str reason) ]
            @ (match c with Some id -> [ ("corr", J.Str id) ] | None -> [])
            @ [ ("dumped_at_ns", J.Int (Int64.to_int (now_ns ())));
                ( "events",
                  J.Arr (List.map entry_to_json (collect ~limit:!ring_capacity ())) ) ])
        in
        let path =
          Filename.concat dir (Printf.sprintf "flightrec-%d.json" pid)
        in
        try
          mkdir_p dir;
          (* Temp-write + rename under [dump_lock]: a reader (CI, a
             human) sees either the previous dump or the whole new one,
             and concurrent failing jobs serialize their dumps. *)
          let tmp = path ^ ".tmp" in
          let oc = open_out_bin tmp in
          (try
             output_string oc (J.to_string doc);
             output_char oc '\n';
             close_out oc
           with e ->
             close_out_noerr oc;
             raise e);
          Sys.rename tmp path;
          Metrics.incr ~routine:"<service>" ~name:"flightrec.dumps";
          Some path
        with Sys_error _ -> None)
