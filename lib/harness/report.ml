(** JSON rendering of harness records, over the telemetry JSON encoder
    ([Epre_telemetry.Tjson] — the same encoder the metrics stream and
    perfbench's report use, so every machine-readable output escapes and
    formats identically). *)

module Tjson = Epre_telemetry.Tjson

let record_fields (r : Harness.record) =
  let outcome, reason =
    match r.Harness.outcome with
    | Harness.Passed -> ("ok", None)
    | Harness.Rolled_back why -> ("rolled-back", Some (Harness.reason_to_string why))
  in
  [ ("pass", Tjson.Str r.Harness.pass);
    ("routine", Tjson.Str r.Harness.routine);
    ("outcome", Tjson.Str outcome) ]
  @ (match reason with None -> [] | Some m -> [ ("reason", Tjson.Str m) ])
  @ [ ("duration_ms", Tjson.Float r.Harness.duration_ms) ]
  @ r.Harness.meta

let record_to_tjson r = Tjson.Obj (record_fields r)

let record_to_json r = Tjson.to_string (record_to_tjson r)

let to_json records =
  match records with
  | [] -> "[]"
  | _ ->
    "[\n  " ^ String.concat ",\n  " (List.map record_to_json records) ^ "\n]"

let record_to_line (r : Harness.record) =
  match r.Harness.outcome with
  | Harness.Passed ->
    Printf.sprintf "ok          %-16s %-12s %.2fms" r.Harness.pass r.Harness.routine
      r.Harness.duration_ms
  | Harness.Rolled_back why ->
    Printf.sprintf "rolled-back %-16s %-12s %.2fms (%s)" r.Harness.pass
      r.Harness.routine r.Harness.duration_ms (Harness.reason_to_string why)
