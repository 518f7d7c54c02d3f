(** Robustness fuzzing: the front-end lexer/parser and the [Ir_text] parser
    must reject arbitrary garbage with their declared exceptions — never a
    crash, assertion failure, or unexpected exception. The serve inputs
    (JSONL job lines, journal files, cache entries) must answer garbage
    with a diagnostic or a fallback, never an exception. *)

open QCheck2

(* Byte soup biased toward the languages' alphabets. *)
let gen_soup =
  let token_ish =
    Gen.oneofl
      [ "fn"; "var"; "if"; "else"; "while"; "for"; "to"; "downto"; "step";
        "return"; "int"; "float"; "("; ")"; "{"; "}"; "["; "]"; ","; ";"; ":";
        "+"; "-"; "*"; "/"; "%"; "&&"; "||"; "!"; "="; "=="; "!="; "<"; "<=";
        ">"; ">="; "x"; "y"; "arr"; "main"; "1"; "2.5"; "0"; "//c\n"; "/*";
        "*/"; "\n"; " " ]
  in
  Gen.oneof
    [ Gen.map (String.concat " ") (Gen.list_size (Gen.int_range 0 40) token_ish);
      Gen.string_size ~gen:Gen.printable (Gen.int_range 0 120);
      Gen.string_size ~gen:(Gen.char_range '\000' '\255') (Gen.int_range 0 60) ]

let frontend_total =
  Helpers.qcheck_case ~count:1000 "fuzz" "front end rejects garbage gracefully"
    gen_soup
    (fun s ->
      match Epre_frontend.Frontend.compile_string s with
      | _ -> true
      | exception Epre_frontend.Frontend.Error { line; _ } -> line >= 1)

let ir_text_soup =
  let token_ish =
    Gen.oneofl
      [ "routine"; "entry"; "regs"; "{"; "}"; "B0"; "B1"; ":"; "r0"; "r1";
        "="; "const"; "copy"; "add"; "mul"; "load"; "store"; "alloca"; "call";
        "phi"; "jump"; "cbr"; "return"; ","; "("; ")"; "3"; "0x1.8p+1"; "\n";
        "f"; "# c\n" ]
  in
  Gen.map (String.concat " ") (Gen.list_size (Gen.int_range 0 50) token_ish)

let ir_text_total =
  Helpers.qcheck_case ~count:1000 "fuzz" "Ir_text rejects garbage gracefully"
    ir_text_soup
    (fun s ->
      match Epre_ir.Ir_text.parse_program s with
      | _ -> true
      | exception Epre_ir.Ir_text.Parse_error { line; _ } -> line >= 1
      | exception Epre_ir.Routine.Ill_formed _ -> true)

(* Valid programs mutated by one random byte: also no crashes. *)
let seed_program =
  {|fn f(n: int): int {
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + i * 2;
  }
  return s;
}|}

let gen_mutation =
  Gen.(
    let* pos = int_bound (String.length seed_program - 1) in
    let* c = printable in
    let b = Bytes.of_string seed_program in
    Bytes.set b pos c;
    return (Bytes.to_string b))

let mutation_total =
  Helpers.qcheck_case ~count:1000 "fuzz" "single-byte mutations handled"
    gen_mutation
    (fun s ->
      match Epre_frontend.Frontend.compile_string s with
      | prog -> begin
        (* if it still compiles, it must also still run or fail cleanly *)
        match Epre_interp.Interp.run ~fuel:200_000 prog ~entry:"f"
                ~args:[ Epre_ir.Value.I 5 ]
        with
        | _ -> true
        | exception Epre_interp.Interp.Runtime_error _ -> true
        | exception Epre_interp.Interp.Out_of_fuel -> true
      end
      | exception Epre_frontend.Frontend.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Serve inputs *)

module Journal = Epre_service.Journal
module Cache = Epre_service.Cache
module Tjson = Epre_telemetry.Tjson

(* Raw bytes, JSON-token soup over the job protocol's vocabulary, job
   objects with random fields, and deep bracket nesting. *)
let gen_serve_soup =
  let value =
    Gen.oneofl [ {|"partial"|}; {|"bogus"|}; {|"saxpy"|}; "true"; "null"; "-1"; "2.5"; "1e309";
                 "[]"; "{}"; {|"\u00e9"|}; {|"\ud800"|}; {|"\"|}; {|"|} ]
  in
  let key = Gen.oneofl [ {|"id"|}; {|"level"|}; {|"iloc"|}; {|"source"|}; {|"workload"|}; {|"emit"|} ] in
  let punct = Gen.oneofl [ "{"; "}"; "["; "]"; ":"; ","; " "; "\\" ] in
  Gen.oneof
    [ Gen.string_size ~gen:(Gen.char_range '\000' '\255') (Gen.int_range 0 80);
      Gen.map (String.concat "") (Gen.list_size (Gen.int_range 0 30) (Gen.oneof [ value; key; punct ]));
      Gen.map (fun kvs -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ v) kvs) ^ "}")
        (Gen.list_size (Gen.int_range 0 6) (Gen.pair key value));
      Gen.map (fun n -> String.make n '[') (Gen.int_range 1 10_000) ]

let job_line_total =
  Helpers.qcheck_case ~count:1000 "fuzz" "job_of_line answers garbage with Ok or Error"
    gen_serve_soup (fun s ->
      match Epre_service.Service.job_of_line ~default_id:"job-1" s with Ok _ | Error _ -> true)

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* A valid journal as serve writes it: its lines (newline included) and
   the entries they load to. *)
let valid_journal =
  lazy
    (let path = Filename.temp_file "eprec-journal" ".jsonl" in
     let j = Journal.open_ ~path () in
     List.iter
       (fun seq ->
         let id = Printf.sprintf "job-%d" seq and key = Printf.sprintf "k%d" seq in
         Journal.append j
           [ Journal.entry ~kind:"started" ~seq ~id ~key ();
             Journal.entry ~kind:"done" ~seq ~id ~key ~fields:[ ("outcome", Tjson.Str "ok") ] () ])
       [ 1; 2; 3 ];
     Journal.close j;
     let text = In_channel.with_open_bin path In_channel.input_all in
     let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
     (List.map (fun l -> l ^ "\n") lines, Journal.load ~path))

(* [text] as a journal file, loaded directly and through a resuming open;
   the two views must agree. *)
let load_journal text =
  let path = Filename.temp_file "eprec-journal" ".jsonl" in
  write_file path text;
  let j = Journal.open_ ~mode:`Resume ~path () in
  let resumed = Journal.entries j in
  Journal.close j;
  let loaded = Journal.load ~path in
  Sys.remove path;
  if loaded <> resumed then Test.fail_report "load and resume disagree";
  loaded

let take n l = List.filteri (fun i _ -> i < n) l

let journal_cut_keeps_prefix =
  Helpers.qcheck_case ~count:200 "fuzz" "journal cut mid-line keeps its intact prefix"
    Gen.(pair nat nat)
    (fun (i, o) ->
      let lines, entries = Lazy.force valid_journal in
      let i = i mod List.length lines in
      (* A strict prefix of a JSON object never parses. *)
      let torn = List.nth lines i in
      let torn = String.sub torn 0 (o mod (String.length torn - 1)) in
      load_journal (String.concat "" (take i lines) ^ torn) = take i entries)

let journal_garbled_total =
  Helpers.qcheck_case ~count:200 "fuzz" "garbled journals load and resume without raising"
    Gen.(triple (list_size (int_range 1 8) (pair nat char)) nat gen_serve_soup)
    (fun (edits, at, soup) ->
      (* Overwrite a few bytes, then splice soup in at one position. *)
      let b = Bytes.of_string (String.concat "" (fst (Lazy.force valid_journal))) in
      List.iter (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) c) edits;
      let s = Bytes.to_string b in
      let at = at mod String.length s in
      ignore (load_journal s);
      ignore (load_journal (String.sub s 0 at ^ soup ^ String.sub s at (String.length s - at)));
      true)

(* One cache and the entry file of one key, for routine [g] (a name the
   ILOC soup never produces), plus valid stats for that routine. *)
let cache_fixture =
  lazy
    (let cache = Cache.create ~dir:(Helpers.fresh_dir ()) () in
     let key = Cache.key ~iloc:"routine g" ~fingerprint:"fp" in
     let shard = Filename.concat (Cache.dir cache) (String.sub key 0 2) in
     List.iter (fun d -> Sys.mkdir d 0o755) [ Cache.dir cache; shard ];
     let prog = Epre_frontend.Frontend.compile_string "fn g(): int { return 1; }" in
     let stats = List.hd (Epre.Pipeline.optimize ~level:Epre.Pipeline.Baseline prog) in
     (* The documented layout: <dir>/<first two hex chars>/<key>.json. *)
     (cache, key, Filename.concat shard (key ^ ".json"), Epre.Pipeline.stats_to_json stats))

let cache_poisoned_entry =
  Helpers.qcheck_case ~count:300 "fuzz" "garbled cache entry: None, counted, removed"
    Gen.(pair gen_serve_soup (option ir_text_soup))
    (fun (soup, iloc) ->
      let cache, key, path, stats = Lazy.force cache_fixture in
      (* Soup, or a well-formed entry whose ILOC is soup. *)
      write_file path
        (match iloc with
        | None -> soup
        | Some iloc ->
          Tjson.to_string
            (Tjson.Obj
               [ ("schema", Tjson.Str "epre/cache-entry/v1"); ("key", Tjson.Str key);
                 ("iloc", Tjson.Str iloc); ("stats", stats) ]));
      let poisoned () = Epre_telemetry.Metrics.get ~routine:"<service>" ~name:"cache.poisoned" in
      let before = poisoned () in
      Cache.find cache ~key = None && poisoned () = before + 1 && not (Sys.file_exists path))

let suite =
  [ frontend_total; ir_text_total; mutation_total; job_line_total; journal_cut_keeps_prefix;
    journal_garbled_total; cache_poisoned_entry ]
