(** Chrome trace-event JSON. See the interface for the format. *)

let us_of_ns ns = Int64.to_float ns /. 1e3

let event (s : Telemetry.span) =
  let args =
    [ ("alloc_minor_words", Tjson.Float s.Telemetry.alloc_minor_words) ]
    @ (match s.Telemetry.routine with
      | Some r -> [ ("routine", Tjson.Str r) ]
      | None -> [])
    @ (match (s.Telemetry.ir_before, s.Telemetry.ir_after) with
      | Some b, Some a ->
        [ ("blocks_before", Tjson.Int b.Telemetry.blocks);
          ("blocks_after", Tjson.Int a.Telemetry.blocks);
          ("instrs_before", Tjson.Int b.Telemetry.instrs);
          ("instrs_after", Tjson.Int a.Telemetry.instrs) ]
      | _ -> [])
    @ if s.Telemetry.raised then [ ("raised", Tjson.Bool true) ] else []
  in
  Tjson.Obj
    [
      ("name", Tjson.Str s.Telemetry.name);
      ("cat", Tjson.Str s.Telemetry.kind);
      ("ph", Tjson.Str "X");
      ("pid", Tjson.Int 1);
      ("tid", Tjson.Int s.Telemetry.domain);
      ("ts", Tjson.Float (us_of_ns s.Telemetry.start_ns));
      ("dur", Tjson.Float (us_of_ns s.Telemetry.dur_ns));
      ("args", Tjson.Obj args);
    ]

let to_json spans =
  (* The spec wants stable ordering by timestamp; spans arrive in
     completion order (children first). *)
  let sorted =
    List.stable_sort
      (fun a b -> Int64.compare a.Telemetry.start_ns b.Telemetry.start_ns)
      spans
  in
  Tjson.Obj
    [
      ("traceEvents", Tjson.Arr (List.map event sorted));
      ("displayTimeUnit", Tjson.Str "ms");
    ]

let to_string spans = Tjson.to_string (to_json spans)

let write ~path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string spans);
      output_char oc '\n')
