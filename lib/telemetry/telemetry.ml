(** Span recording over the monotonic clock. See the interface for the
    model; the design constraint is that the disabled path is a couple of
    ref probes, so telemetry can stay linked into every build. *)

module Clock = struct
  let now_ns () = Monotonic_clock.now ()

  let elapsed_ms ~since = Int64.to_float (Int64.sub (now_ns ()) since) /. 1e6
end

(* Block and instruction counts of a routine (holes excluded, terminators
   excluded — the shape a pass changes). *)
let measure (r : Epre_ir.Routine.t) =
  (List.length (Epre_ir.Cfg.blocks r.Epre_ir.Routine.cfg), Epre_ir.Routine.instr_count r)

module Span = struct
  let timed ?(kind = "task") ?routine ?hist ~name f =
    let store = Recorder.enabled () in
    let before = if store then Option.map measure routine else None in
    let alloc0 = if store then Gc.minor_words () else 0.0 in
    let t0 = Clock.now_ns () in
    let close raised =
      let dur_ns = Int64.to_int (Int64.sub (Clock.now_ns ()) t0) in
      Option.iter (fun h -> Histogram.observe ~name:h dur_ns) hist;
      if store then
        Recorder.note
          ~fields:
            ([ ("kind", Tjson.Str kind);
               ("start_ns", Tjson.Int (Int64.to_int t0));
               ("dur_ns", Tjson.Int dur_ns);
               ("alloc_minor_words", Tjson.Float (Gc.minor_words () -. alloc0)) ]
            @ (match (routine, before) with
              | Some r, Some (blocks, instrs) ->
                let blocks', instrs' = measure r in
                [ ("routine", Tjson.Str r.Epre_ir.Routine.name);
                  ("blocks_before", Tjson.Int blocks);
                  ("blocks_after", Tjson.Int blocks');
                  ("instrs_before", Tjson.Int instrs);
                  ("instrs_after", Tjson.Int instrs') ]
              | _ -> [])
            @ if raised then [ ("raised", Tjson.Bool true) ] else [])
          name;
      dur_ns
    in
    match f () with
    | v -> (v, close false)
    | exception e ->
      ignore (close true);
      raise e

  let with_ ?kind ?routine ?hist ~name f =
    if hist = None && not (Recorder.enabled ()) then f ()
    else fst (timed ?kind ?routine ?hist ~name f)
end

let int_field e k =
  match List.assoc_opt k e.Recorder.fields with Some (Tjson.Int i) -> i | _ -> 0

let float_field e k =
  match List.assoc_opt k e.Recorder.fields with Some (Tjson.Float f) -> f | _ -> 0.0

let str_field e k =
  match List.assoc_opt k e.Recorder.fields with Some (Tjson.Str s) -> s | _ -> ""
