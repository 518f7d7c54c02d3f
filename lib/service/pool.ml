(** Domain pool with work-stealing scheduling. See the interface for the
    model; the synchronization protocol is described inline. *)

let now_ns () = Epre_telemetry.Telemetry.Clock.now_ns ()

type task = unit -> unit

type worker = { deque : task Deque.t; mutable busy_ns : int64 }

type t = {
  size : int;  (** worker domains; 0 = inline pool *)
  workers : worker array;
  mutable domains : unit Domain.t list;
  lock : Mutex.t;
  cv : Condition.t;
      (** one condition variable for every event — new work submitted,
          a batch completed, shutdown — so a waiter can never miss the
          event class it cares about; spurious wakeups just re-scan *)
  mutable stamp : int;  (** bumped under [lock] on every submission *)
  mutable helper_busy_ns : int64;
  mutable stopped : bool;
}

let default_jobs () = Domain.recommended_domain_count ()

let size t = t.size

(* Steal sweep starting after [i], so contention spreads instead of every
   idle worker hammering worker 0. *)
let find_task t i =
  let n = Array.length t.workers in
  match Deque.pop t.workers.(i).deque with
  | Some _ as found -> found
  | None ->
    let t0 = now_ns () in
    let rec sweep k =
      if k >= n then None
      else
        match Deque.steal t.workers.((i + k) mod n).deque with
        | Some _ as found -> found
        | None -> sweep (k + 1)
    in
    let found = sweep 1 in
    (match found with
    | Some _ -> Epre_telemetry.Histogram.observe_since ~name:"pool.steal" t0
    | None -> ());
    found

let steal_any t =
  let n = Array.length t.workers in
  let rec sweep k =
    if k >= n then None
    else
      match Deque.steal t.workers.(k).deque with
      | Some _ as found -> found
      | None -> sweep (k + 1)
  in
  sweep 0

(* Tasks are pre-wrapped by [map] and never raise. *)
let exec_task task = try task () with _ -> ()

let worker_loop t i =
  let w = t.workers.(i) in
  let rec loop () =
    (* Read the submission stamp *before* scanning: if a submission lands
       during the scan, the stamp comparison below forces a re-scan
       instead of a wait — the classic lost-wakeup guard. *)
    Mutex.lock t.lock;
    let seen = t.stamp in
    Mutex.unlock t.lock;
    match find_task t i with
    | Some task ->
      let t0 = now_ns () in
      exec_task task;
      let d = Int64.sub (now_ns ()) t0 in
      Mutex.lock t.lock;
      w.busy_ns <- Int64.add w.busy_ns d;
      Mutex.unlock t.lock;
      loop ()
    | None ->
      Mutex.lock t.lock;
      if t.stopped then Mutex.unlock t.lock
      else if t.stamp <> seen then begin
        Mutex.unlock t.lock;
        loop ()
      end
      else begin
        let t0 = now_ns () in
        Condition.wait t.cv t.lock;
        Mutex.unlock t.lock;
        Epre_telemetry.Histogram.observe_since ~name:"pool.idle" t0;
        loop ()
      end
  in
  loop ()

let create ~jobs () =
  let size = if jobs <= 1 then 0 else jobs in
  let workers =
    Array.init (max 1 size) (fun _ -> { deque = Deque.create (); busy_ns = 0L })
  in
  let t =
    { size; workers; domains = []; lock = Mutex.create ();
      cv = Condition.create (); stamp = 0; helper_busy_ns = 0L;
      stopped = false }
  in
  t.domains <- List.init size (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t

let shutdown t =
  Mutex.lock t.lock;
  let was_stopped = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.lock;
  if not was_stopped then List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type stats = { busy_ns : int64 array; helper_busy_ns : int64 }

let stats t =
  Mutex.lock t.lock;
  let s =
    { busy_ns =
        Array.map (fun (w : worker) -> w.busy_ns) (Array.sub t.workers 0 t.size);
      helper_busy_ns = t.helper_busy_ns }
  in
  Mutex.unlock t.lock;
  s

(* Help execute pending tasks (of any batch) while waiting on our own —
   this is what makes nested [map] calls from inside a task safe. *)
let help_while t ~unfinished =
  let rec wait () =
    if unfinished () then begin
      Mutex.lock t.lock;
      let seen = t.stamp in
      Mutex.unlock t.lock;
      match steal_any t with
      | Some task ->
        let t0 = now_ns () in
        exec_task task;
        let d = Int64.sub (now_ns ()) t0 in
        Mutex.lock t.lock;
        t.helper_busy_ns <- Int64.add t.helper_busy_ns d;
        Mutex.unlock t.lock;
        wait ()
      | None ->
        Mutex.lock t.lock;
        (* Re-check under the lock: batch completion broadcasts under it,
           so the batch cannot slip to zero between this test and the
           wait. A new submission (stamp change) also wakes us. *)
        if unfinished () && t.stamp = seen then Condition.wait t.cv t.lock;
        Mutex.unlock t.lock;
        wait ()
    end
  in
  wait ()

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
    for i = 0 to n - 1 do
      Deque.push t.workers.(i mod t.size).deque (task i)
    done;
    Mutex.lock t.lock;
    t.stamp <- t.stamp + 1;
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
