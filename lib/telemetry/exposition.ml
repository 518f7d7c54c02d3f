(** Prometheus-style text exposition of the metrics registries. See the
    interface for the format. *)

let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quantiles = [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99) ]

let render () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "# epre metrics exposition\n";
  (match Metrics.snapshot () with
  | [] -> ()
  | counters ->
    Buffer.add_string b "# TYPE epre_counter counter\n";
    List.iter
      (fun (e : Metrics.entry) ->
        Buffer.add_string b
          (Printf.sprintf "epre_counter{routine=\"%s\",name=\"%s\"} %d\n"
             (escape_label e.routine) (escape_label e.name) e.value))
      counters);
  (match Histogram.snapshot () with
  | [] -> ()
  | hists ->
    Buffer.add_string b "# TYPE epre_hist_ns summary\n";
    List.iter
      (fun (name, m) ->
        let n = escape_label name in
        List.iter
          (fun (label, q) ->
            Buffer.add_string b
              (Printf.sprintf "epre_hist_ns{name=\"%s\",quantile=\"%s\"} %d\n"
                 n label (Histogram.quantile m q)))
          quantiles;
        Buffer.add_string b
          (Printf.sprintf "epre_hist_ns_max{name=\"%s\"} %d\n" n
             m.Histogram.max_value);
        Buffer.add_string b
          (Printf.sprintf "epre_hist_ns_count{name=\"%s\"} %d\n" n
             m.Histogram.count);
        Buffer.add_string b
          (Printf.sprintf "epre_hist_ns_sum{name=\"%s\"} %d\n" n
             m.Histogram.sum))
      hists);
  Buffer.contents b

let write ~path =
  let text = render () in
  (* Temp-write + rename: a scraper reading on interval sees either the
     previous exposition or the whole new one. *)
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    try
      output_string oc text;
      close_out oc;
      Sys.rename tmp path
    with e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  with Sys_error _ ->
    (* Like a failed log or cache write, a failed exposition is counted,
       never raised into the caller: the metrics file cannot fail the
       jobs it describes, and the next write tries again. *)
    Metrics.incr ~routine:"<service>" ~name:"metrics.write_failed"

(* ------------------------------------------------------------------ *)
(* Parsing (tests and CI validate what [write] produced) *)

type sample = { metric : string; labels : (string * string) list; value : float }

exception Bad of string

let parse_labels s =
  (* k="v",k2="v2" with backslash escapes inside the quotes *)
  let n = String.length s in
  let labels = ref [] in
  let i = ref 0 in
  while !i < n do
    let eq =
      match String.index_from_opt s !i '=' with
      | Some e -> e
      | None -> raise (Bad "label without '='")
    in
    let key = String.trim (String.sub s !i (eq - !i)) in
    if eq + 1 >= n || s.[eq + 1] <> '"' then raise (Bad "label value not quoted");
    let b = Buffer.create 16 in
    let j = ref (eq + 2) in
    let closed = ref false in
    while not !closed do
      if !j >= n then raise (Bad "unterminated label value");
      (match s.[!j] with
      | '\\' ->
        if !j + 1 >= n then raise (Bad "dangling escape");
        (match s.[!j + 1] with
        | 'n' -> Buffer.add_char b '\n'
        | c -> Buffer.add_char b c);
        j := !j + 1
      | '"' -> closed := true
      | c -> Buffer.add_char b c);
      incr j
    done;
    labels := (key, Buffer.contents b) :: !labels;
    i := if !j < n && s.[!j] = ',' then !j + 1 else !j
  done;
  List.rev !labels

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else begin
    let metric, rest =
      match String.index_opt line '{' with
      | Some lb ->
        let rb =
          match String.rindex_opt line '}' with
          | Some r when r > lb -> r
          | _ -> raise (Bad "unbalanced '{'")
        in
        ( String.sub line 0 lb,
          ( parse_labels (String.sub line (lb + 1) (rb - lb - 1)),
            String.sub line (rb + 1) (String.length line - rb - 1) ) )
      | None -> (
        match String.index_opt line ' ' with
        | Some sp ->
          ( String.sub line 0 sp,
            ([], String.sub line sp (String.length line - sp)) )
        | None -> raise (Bad "line without value"))
    in
    let labels, value_text = rest in
    match float_of_string_opt (String.trim value_text) with
    | Some value -> Some { metric; labels; value }
    | None -> raise (Bad ("bad sample value: " ^ String.trim value_text))
  end

let parse text =
  try
    Ok
      (List.filter_map parse_line
         (String.split_on_char '\n' text))
  with Bad m -> Error m
