(** Per-pass circuit breakers. See the interface for the state machine. *)

module Log = Epre_telemetry.Log
module Metrics = Epre_telemetry.Metrics
module Recorder = Epre_telemetry.Recorder
module J = Epre_telemetry.Tjson

type state =
  | Closed of int  (** consecutive failures so far *)
  | Open of int  (** pipeline executions left until the half-open probe *)
  | Half_open

type t = {
  mutex : Mutex.t;
  threshold : int;
  probe_after : int;
  tbl : (string, state) Hashtbl.t;
}

let create ?(threshold = 3) ?(probe_after = 8) () =
  { mutex = Mutex.create (); threshold = max 1 threshold;
    probe_after = max 1 probe_after; tbl = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let state_name = function
  | Closed _ -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"

let state t pass =
  Option.value (Hashtbl.find_opt t.tbl pass) ~default:(Closed 0)

(* Called with the mutex held; the log/metrics/recorder sinks are all
   thread-safe and non-blocking, so emitting under the lock is fine and
   keeps transitions totally ordered. *)
let transition t ~pass ~from ~to_ =
  Hashtbl.replace t.tbl pass to_;
  let from_name = state_name from and to_name = state_name to_ in
  Metrics.incr ~routine:"<service>" ~name:("breaker." ^ to_name);
  Log.warn ~event:"breaker.transition"
    ~fields:[ ("pass", J.Str pass); ("from", J.Str from_name); ("to", J.Str to_name) ]
    (Printf.sprintf "breaker %s: %s -> %s" pass from_name to_name);
  (* An opening breaker is an incident: capture the recent-event ring. *)
  match to_ with
  | Open _ -> ignore (Recorder.dump ~reason:("breaker-open: " ^ pass) ())
  | Closed _ | Half_open -> ()

let failure t ~pass =
  locked t @@ fun () ->
  match state t pass with
  | Closed n when n + 1 >= t.threshold ->
    transition t ~pass ~from:(Closed n) ~to_:(Open t.probe_after)
  | Closed n -> Hashtbl.replace t.tbl pass (Closed (n + 1))
  | Half_open -> transition t ~pass ~from:Half_open ~to_:(Open t.probe_after)
  | Open _ ->
    (* The pass ran despite an open breaker (e.g. a caller that does not
       consult [excluded]); stays open. *)
    ()

let success t ~pass =
  locked t @@ fun () ->
  match state t pass with
  | Closed 0 -> ()
  | Closed _ -> Hashtbl.replace t.tbl pass (Closed 0)
  | Half_open -> transition t ~pass ~from:Half_open ~to_:(Closed 0)
  | Open _ -> ()

(* First occurrences only: PRE levels run pre and dce twice, and one
   pipeline execution must count once against each breaker. *)
let rec distinct = function
  | [] -> []
  | p :: rest -> p :: distinct (List.filter (( <> ) p) rest)

let excluded t ~passes =
  locked t @@ fun () ->
  List.filter
    (fun pass ->
      match state t pass with
      | Closed _ | Half_open -> false
      | Open k when k <= 0 ->
        (* Countdown spent — probe_after executions were skipped. Probe
           time: let this pipeline run the pass and report back. *)
        transition t ~pass ~from:(Open k) ~to_:Half_open;
        false
      | Open k ->
        Hashtbl.replace t.tbl pass (Open (k - 1));
        true)
    (distinct passes)

let snapshot t =
  locked t @@ fun () ->
  Hashtbl.fold (fun pass s acc -> (pass, state_name s) :: acc) t.tbl []
  |> List.sort compare
