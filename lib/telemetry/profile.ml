(** Per-pass profile summary. See the interface. *)

type row = {
  name : string;
  calls : int;
  total_ms : float;
  mean_us : float;
  alloc_minor_words : float;
  share : float;
}

let ms_of_ns ns = float_of_int ns /. 1e6

let rows ?(kind = "pass") spans =
  let selected = List.filter (fun e -> Telemetry.str_field e "kind" = kind) spans in
  let selected = if selected = [] then spans else selected in
  let table : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (e : Recorder.entry) ->
      let calls, ms, words =
        match Hashtbl.find_opt table e.Recorder.event with
        | Some cells -> cells
        | None ->
          let cells = (ref 0, ref 0.0, ref 0.0) in
          Hashtbl.add table e.Recorder.event cells;
          cells
      in
      incr calls;
      ms := !ms +. ms_of_ns (Telemetry.int_field e "dur_ns");
      words := !words +. Telemetry.float_field e "alloc_minor_words")
    selected;
  let total_ms =
    Hashtbl.fold (fun _ (_, ms, _) acc -> acc +. !ms) table 0.0
  in
  Hashtbl.fold
    (fun name (calls, ms, words) acc ->
      {
        name;
        calls = !calls;
        total_ms = !ms;
        mean_us = 1000.0 *. !ms /. float_of_int (max 1 !calls);
        alloc_minor_words = !words;
        share = (if total_ms <= 0.0 then 0.0 else 100.0 *. !ms /. total_ms);
      }
      :: acc)
    table []
  |> List.sort (fun a b -> compare b.total_ms a.total_ms)

let render ?kind entries =
  match rows ?kind entries with
  | [] -> "profile: no spans recorded\n"
  | rs ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "%-18s %6s %12s %12s %16s %7s\n" "span" "calls" "total ms"
         "mean us" "minor words" "share");
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "%-18s %6d %12.3f %12.1f %16.0f %6.1f%%\n" r.name
             r.calls r.total_ms r.mean_us r.alloc_minor_words r.share))
      rs;
    let total = List.fold_left (fun acc r -> acc +. r.total_ms) 0.0 rs in
    Buffer.add_string buf
      (Printf.sprintf "%-18s %6s %12.3f %12s %16s %6.1f%%\n" "total" "" total ""
         "" 100.0);
    Buffer.contents buf
