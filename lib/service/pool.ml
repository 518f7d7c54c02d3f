(** Domain pool over one shared FIFO queue. See the interface for the
    model; the synchronization protocol is described inline. *)

let now_ns () = Epre_telemetry.Telemetry.Clock.now_ns ()

type t = {
  size : int;  (** spawned worker domains; 0 = inline pool *)
  queue : (unit -> unit) Queue.t;  (** pending tasks of every batch *)
  lock : Mutex.t;  (** guards every mutable field and [queue] *)
  cv : Condition.t;
      (** one condition variable for every event — work queued, a batch
          completed, shutdown — so a waiter can never miss the event
          class it cares about; spurious wakeups just re-check *)
  busy_ns : int64 array;  (** per worker *)
  mutable helper_busy_ns : int64;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let size t = t.size

(* Run one queued task with [t.lock] held on entry and exit, releasing it
   while the task runs; returns the task's wall time. Tasks are
   pre-wrapped by [map] and never raise. *)
let run_unlocked t task =
  Mutex.unlock t.lock;
  let t0 = now_ns () in
  (try task () with _ -> ());
  let d = Int64.sub (now_ns ()) t0 in
  Mutex.lock t.lock;
  d

let worker_loop t i =
  Mutex.lock t.lock;
  let rec loop () =
    match Queue.take_opt t.queue with
    | Some task ->
      let d = run_unlocked t task in
      t.busy_ns.(i) <- Int64.add t.busy_ns.(i) d;
      loop ()
    | None when t.stopped -> Mutex.unlock t.lock
    | None ->
      let t0 = now_ns () in
      Condition.wait t.cv t.lock;
      Epre_telemetry.Histogram.observe_since ~name:"pool.idle" t0;
      loop ()
  in
  loop ()

(* The submitting domain runs tasks too (it helps while it waits), so
   [jobs] domains means [jobs - 1] spawned workers. *)
let create ~jobs () =
  let size = if jobs <= 1 then 0 else jobs - 1 in
  let t =
    { size; queue = Queue.create (); lock = Mutex.create ();
      cv = Condition.create (); busy_ns = Array.make size 0L;
      helper_busy_ns = 0L; stopped = false; domains = [] }
  in
  t.domains <- List.init size (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stopped <- true;
  Condition.broadcast t.cv;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join domains

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type stats = { busy_ns : int64 array; helper_busy_ns : int64 }

let stats t =
  Mutex.lock t.lock;
  let s = { busy_ns = Array.copy t.busy_ns; helper_busy_ns = t.helper_busy_ns } in
  Mutex.unlock t.lock;
  s

(* Run queued tasks (of any batch) while waiting on our own — this is what
   makes nested [map] calls from inside a task safe. [unfinished] is
   re-checked under the lock, and batch completion broadcasts under it, so
   the batch cannot finish between that check and the wait. *)
let help_while t ~unfinished =
  Mutex.lock t.lock;
  let rec wait () =
    if unfinished () then begin
      (match Queue.take_opt t.queue with
      | Some task ->
        let d = run_unlocked t task in
        t.helper_busy_ns <- Int64.add t.helper_busy_ns d
      | None -> Condition.wait t.cv t.lock);
      wait ()
    end
  in
  wait ();
  Mutex.unlock t.lock

type 'a outcome = Done of 'a | Failed of exn * Printexc.raw_backtrace

let run_one f x =
  match f x with
  | v -> Done v
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

let map_outcomes t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.size = 0 then begin
    let t0 = now_ns () in
    let finish () =
      Mutex.lock t.lock;
      t.helper_busy_ns <- Int64.add t.helper_busy_ns (Int64.sub (now_ns ()) t0);
      Mutex.unlock t.lock
    in
    Fun.protect ~finally:finish (fun () -> Array.map (run_one f) arr)
  end
  else begin
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let submit_ns = now_ns () in
    let task i () =
      (* Queue wait: submission to first execution, whichever domain
         (worker or helping submitter) picks the task up. *)
      Epre_telemetry.Histogram.observe_since ~name:"pool.queue_wait" submit_ns;
      results.(i) <- Some (run_one f arr.(i));
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock t.lock;
        Condition.broadcast t.cv;
        Mutex.unlock t.lock
      end
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.cv;
    Mutex.unlock t.lock;
    help_while t ~unfinished:(fun () -> Atomic.get remaining > 0);
    (* The batch has fully drained: every slot is filled, and the mutex
       hand-offs above order the workers' writes before these reads. *)
    Array.map (function Some o -> o | None -> assert false) results
  end

let map t f arr =
  (* Re-raise the lowest-indexed failure after the whole batch has
     drained. *)
  Array.map
    (function Done v -> v | Failed (e, bt) -> Printexc.raise_with_backtrace e bt)
    (map_outcomes t f arr)

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))
