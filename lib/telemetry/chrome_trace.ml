(** Chrome trace-event JSON. See the interface for the format. *)

let us_of_ns ns = float_of_int ns /. 1e3

(* Fields that are the event's own, not its [args]. *)
let own = [ "kind"; "start_ns"; "dur_ns" ]

let event ~epoch (e : Recorder.entry) =
  let field = Telemetry.int_field e in
  Tjson.Obj
    [
      ("name", Tjson.Str e.Recorder.event);
      ("cat", Tjson.Str (Telemetry.str_field e "kind"));
      ("ph", Tjson.Str "X");
      ("pid", Tjson.Int 1);
      ("tid", Tjson.Int e.Recorder.domain);
      ("ts", Tjson.Float (us_of_ns (field "start_ns" - epoch)));
      ("dur", Tjson.Float (us_of_ns (field "dur_ns")));
      ( "args",
        Tjson.Obj (List.filter (fun (k, _) -> not (List.mem k own)) e.Recorder.fields) );
    ]

let to_json entries =
  (* The spec wants stable ordering by timestamp; spans arrive in
     completion order (children first). *)
  let spans =
    List.map (fun e -> (Telemetry.int_field e "start_ns", e)) entries
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  let epoch = match spans with (t, _) :: _ -> t | [] -> 0 in
  Tjson.Obj
    [
      ("traceEvents", Tjson.Arr (List.map (fun (_, e) -> event ~epoch e) spans));
      ("displayTimeUnit", Tjson.Str "ms");
    ]

let to_string entries = Tjson.to_string (to_json entries)

let write ~path entries =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string entries);
      output_char oc '\n')
