(** Span recording over the monotonic clock. See the interface for the
    model; the design constraint is that the disabled path is one ref
    probe, so telemetry can stay linked into every build. *)

module Clock = struct
  let now_ns () = Monotonic_clock.now ()

  let elapsed_ms ~since = Int64.to_float (Int64.sub (now_ns ()) since) /. 1e6
end

type ir_size = { blocks : int; instrs : int }

let measure_routine (r : Epre_ir.Routine.t) =
  {
    blocks = List.length (Epre_ir.Cfg.blocks r.Epre_ir.Routine.cfg);
    instrs = Epre_ir.Routine.instr_count r;
  }

type span = {
  name : string;
  kind : string;
  routine : string option;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  alloc_minor_words : float;
  ir_before : ir_size option;
  ir_after : ir_size option;
  raised : bool;
}

type recorder = {
  epoch : int64;
  lock : Mutex.t;
      (** guards [finished]: spans complete from compile-pool worker
          domains as well as the installing domain *)
  mutable finished : span list;  (** completion order, newest first *)
}

let current : recorder option ref = ref None

let install () =
  let r =
    { epoch = Clock.now_ns (); lock = Mutex.create (); finished = [] }
  in
  current := Some r;
  r

let uninstall () = current := None

let enabled () = !current <> None

let spans r = List.rev r.finished

let with_recorder f =
  let r = install () in
  Fun.protect ~finally:uninstall (fun () -> f r)

module Span = struct
  let with_ ?(kind = "task") ?routine ~name f =
    match (!current, Recorder.enabled ()) with
    | None, false -> f ()
    | rec_opt, flight ->
      let routine_name = Option.map (fun r -> r.Epre_ir.Routine.name) routine in
      let ir_before = Option.map measure_routine routine in
      let alloc0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      let finish raised =
        let dur_ns = Int64.sub (Clock.now_ns ()) t0 in
        let alloc_minor_words = Gc.minor_words () -. alloc0 in
        (match rec_opt with
        | None -> ()
        | Some rec_ ->
          let finished_span =
            {
              name;
              kind;
              routine = routine_name;
              domain = (Domain.self () :> int);
              start_ns = Int64.sub t0 rec_.epoch;
              dur_ns;
              alloc_minor_words;
              ir_before;
              ir_after = Option.map measure_routine routine;
              raised;
            }
          in
          Mutex.lock rec_.lock;
          rec_.finished <- finished_span :: rec_.finished;
          Mutex.unlock rec_.lock);
        (* Span closures also feed the flight recorder's ring, so a
           post-mortem shows what each domain was computing — not just
           what it logged — in the run-up to the failure. *)
        if flight then
          Recorder.note ~kind:"span" ~level:"span"
            ~fields:
              ([ ("kind", Tjson.Str kind);
                 ("dur_ns", Tjson.Int (Int64.to_int dur_ns)) ]
              @ (match routine_name with
                | Some r -> [ ("routine", Tjson.Str r) ]
                | None -> [])
              @ if raised then [ ("raised", Tjson.Bool true) ] else [])
            name
      in
      (match f () with
      | v ->
        finish false;
        v
      | exception e ->
        finish true;
        raise e)
end
