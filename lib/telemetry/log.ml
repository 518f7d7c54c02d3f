(** Leveled structured logging. See the interface for the model; sink
    state and rate limiting are described inline. *)

module J = Tjson

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

(* Event timestamps are monotonic nanoseconds since process start (well,
   module initialization), so they order and subtract exactly like span
   timings and never jump with wall-clock adjustments. *)
let epoch = Monotonic_clock.now ()

(* Sink state, all under [lock]: the text sink (stderr unless a test
   swaps in a buffer), its level filter, and the JSONL file sink. *)
let lock = Mutex.create ()

let stderr_level : level option ref = ref None

let text_sink : (string -> unit) ref = ref prerr_endline

let file_chan : out_channel option ref = ref None

(* One ref probe for the disabled fast path; kept in sync with the sink
   state. *)
let sinks_on = ref false

let refresh () = sinks_on := !stderr_level <> None || !file_chan <> None

let set_stderr_level l =
  Mutex.lock lock;
  stderr_level := l;
  refresh ();
  Mutex.unlock lock

let set_text_sink f =
  Mutex.lock lock;
  text_sink := f;
  Mutex.unlock lock

let close_file () =
  Mutex.lock lock;
  (match !file_chan with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ());
  file_chan := None;
  refresh ();
  Mutex.unlock lock

let open_file path =
  (* Opened before taking [lock]: a failed open raises with the lock
     free, so the sinks stay usable. *)
  let oc = open_out_bin path in
  close_file ();
  Mutex.lock lock;
  file_chan := Some oc;
  refresh ();
  Mutex.unlock lock

(* ------------------------------------------------------------------ *)
(* Rate limiting *)

(* Warn-and-above events are capped per (event name, 1s window): a fault
   firing on every job of a big batch logs the first [max_per_window]
   occurrences and counts the rest in [log.suppressed], instead of
   flooding stderr. Called under [lock]. *)
let window_ns = 1_000_000_000L

let max_per_window = 50

let rl_windows : (string, int64 * int ref) Hashtbl.t = Hashtbl.create 16

let rate_limited ~now event =
  match Hashtbl.find_opt rl_windows event with
  | Some (start, n) when Int64.sub now start < window_ns ->
    incr n;
    !n > max_per_window
  | _ ->
    Hashtbl.replace rl_windows event (now, ref 1);
    false

(* ------------------------------------------------------------------ *)
(* Emission *)

let field_text (k, v) =
  Printf.sprintf " %s=%s" k
    (match v with J.Str s -> s | other -> J.to_string other)

let render_text ~ts_ns ~level ~domain ~corr ~event ~fields msg =
  Printf.sprintf "[%10.6f] %-5s d%d%s %s: %s%s"
    (Int64.to_float ts_ns /. 1e9)
    (level_to_string level) domain
    (match corr with Some c -> " " ^ c | None -> "")
    event msg
    (String.concat "" (List.map field_text fields))

let to_json ~ts_ns ~level ~domain ~corr ~event ~fields msg =
  J.Obj
    ([ ("ts_ns", J.Int (Int64.to_int ts_ns));
       ("level", J.Str (level_to_string level));
       ("event", J.Str event);
       ("domain", J.Int domain) ]
    @ (match corr with Some c -> [ ("corr", J.Str c) ] | None -> [])
    @ [ ("msg", J.Str msg) ]
    @ match fields with [] -> [] | fs -> [ ("fields", J.Obj fs) ])

let emit level ~event ?corr ?(fields = []) msg =
  if !sinks_on then begin
    let now = Monotonic_clock.now () in
    let ts_ns = Int64.sub now epoch in
    let domain = (Domain.self () :> int) in
    let corr = match corr with Some _ as c -> c | None -> Recorder.corr () in
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        if severity level >= severity Warn && rate_limited ~now event then
          Metrics.incr ~routine:"<service>" ~name:"log.suppressed"
        else begin
          (* A sink's I/O error (closed stderr, full disk) is the log's
             own problem: it is counted, never raised into the caller,
             so logging cannot fail the work it describes. *)
          let sink_error () =
            Metrics.incr ~routine:"<service>" ~name:"log.sink_errors"
          in
          (match !stderr_level with
          | Some min_level when severity level >= severity min_level -> (
            try
              !text_sink
                (render_text ~ts_ns ~level ~domain ~corr ~event ~fields msg)
            with Sys_error _ -> sink_error ())
          | Some _ | None -> ());
          match !file_chan with
          | Some oc -> (
            try
              output_string oc
                (J.to_string
                   (to_json ~ts_ns ~level ~domain ~corr ~event ~fields msg));
              output_char oc '\n';
              flush oc
            with Sys_error _ ->
              (* Every later line would fail the same way: close the
                 file sink. *)
              sink_error ();
              close_out_noerr oc;
              file_chan := None;
              refresh ())
          | None -> ()
        end)
  end

let debug ~event ?corr ?fields msg = emit Debug ~event ?corr ?fields msg

let info ~event ?corr ?fields msg = emit Info ~event ?corr ?fields msg

let warn ~event ?corr ?fields msg = emit Warn ~event ?corr ?fields msg

let error ~event ?corr ?fields msg = emit Error ~event ?corr ?fields msg
