(** The compile service: pool ordering / exception / nesting semantics
    and concurrent submitters, cache hit replay, fingerprint
    invalidation, poisoned-entry fallback, the serve job protocol, every
    [run_job] branch, and the crash-safety layer — journal round-trips,
    kill-and-resume byte identity, the graceful-degradation ladder,
    per-pass circuit breakers, batch-size invariance, serve under each
    service fault class, and side-channel I/O failures that fail no
    job. *)

open Epre_ir
module Pool = Epre_service.Pool
module Cache = Epre_service.Cache
module Service = Epre_service.Service
module Journal = Epre_service.Journal
module Breaker = Epre_service.Breaker
module Pipeline = Epre.Pipeline
module Tjson = Epre_telemetry.Tjson

let program_text p = Ir_text.print_program p

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let input = Array.init 100 (fun i -> i) in
          let out = Pool.map pool (fun i -> i * i) input in
          Array.iteri
            (fun i v ->
              Alcotest.(check int) (Printf.sprintf "jobs=%d idx=%d" jobs i)
                (i * i) v)
            out))
    [ 1; 2; 4 ]

exception Boom of int

let test_pool_exception () =
  Pool.with_pool ~jobs:2 (fun pool ->
      match
        Pool.map pool
          (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
          (Array.init 20 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected the batch to raise"
      | exception Boom i ->
        (* The lowest-indexed failure wins, whatever the schedule. *)
        Alcotest.(check int) "first failure" 2 i)

let test_pool_nested_map () =
  (* A task that submits its own batch must not deadlock: the submitter
     helps drain the pool while it waits. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let out =
        Pool.map_list pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map pool (fun j -> (10 * i) + j) (Array.init 4 (fun j -> j))))
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "nested sums" [ 46; 86; 126 ] out)

(* ------------------------------------------------------------------ *)
(* Concurrent submitters / outcome protocol *)

let test_pool_concurrent_submitters () =
  (* Three submitter domains map onto one shared pool at once, and every
     tenth task nests a batch of its own. Every task (nested ones too)
     must run exactly once, each submitter must get its own results in
     input order, and the workers must have recorded busy time. *)
  let submitters = 3 and n = 300 and fanout = 4 in
  let runs = Array.init (submitters * n) (fun _ -> Atomic.make 0) in
  let nested_runs = Atomic.make 0 in
  let spin () =
    let t0 = Epre_telemetry.Telemetry.Clock.now_ns () in
    while Epre_telemetry.Telemetry.Clock.elapsed_ms ~since:t0 < 0.02 do () done
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      let submit s () =
        Pool.map pool
          (fun i ->
            let id = (s * n) + i in
            Atomic.incr runs.(id);
            spin ();
            let nested =
              if i mod 10 <> 0 then 0
              else
                Array.fold_left ( + ) 0
                  (Pool.map pool
                     (fun j -> Atomic.incr nested_runs; spin (); j)
                     (Array.init fanout Fun.id))
            in
            (2 * id) + nested)
          (Array.init n Fun.id)
      in
      let outs =
        List.map Domain.join
          (List.init submitters (fun s -> Domain.spawn (submit s)))
      in
      List.iteri
        (fun s out ->
          Array.iteri
            (fun i v ->
              let nested = if i mod 10 = 0 then fanout * (fanout - 1) / 2 else 0 in
              Alcotest.(check int)
                (Printf.sprintf "submitter %d idx %d" s i)
                ((2 * ((s * n) + i)) + nested) v)
            out)
        outs;
      Array.iteri
        (fun id c ->
          Alcotest.(check int) (Printf.sprintf "task %d ran once" id) 1 (Atomic.get c))
        runs;
      Alcotest.(check int) "nested tasks ran once each"
        (submitters * (n / 10) * fanout) (Atomic.get nested_runs);
      let st = Pool.stats pool in
      Alcotest.(check int) "one busy slot per spawned worker" 3
        (Array.length st.Pool.busy_ns);
      Alcotest.(check bool) "workers recorded busy time" true
        (Array.fold_left Int64.add 0L st.Pool.busy_ns > 0L))

let test_pool_in_flight_bound () =
  (* [jobs] counts the submitter: a pool of [jobs] never runs more than
     [jobs] tasks at once. With a spawned worker per job, the helping
     submitter made it [jobs + 1], more domains than cores. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let in_flight = Atomic.make 0 and peak = Atomic.make 0 in
          let rec raise_peak n =
            let p = Atomic.get peak in
            if n > p && not (Atomic.compare_and_set peak p n) then raise_peak n
          in
          let spin () =
            let t0 = Unix.gettimeofday () in
            while Unix.gettimeofday () -. t0 < 0.002 do () done
          in
          ignore
            (Pool.map pool
               (fun () ->
                 raise_peak (Atomic.fetch_and_add in_flight 1 + 1);
                 spin ();
                 Atomic.decr in_flight)
               (Array.make 64 ()));
          Alcotest.(check int) (Printf.sprintf "jobs=%d spawned workers" jobs)
            (jobs - 1) (Pool.size pool);
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: at most %d in flight, saw %d" jobs jobs
               (Atomic.get peak))
            true
            (Atomic.get peak <= jobs)))
    [ 2; 4 ]

let test_pool_outcome_mix () =
  (* Every job runs to an outcome: failures are contained per index and
     successes keep their slots. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let out =
        Pool.map_outcomes pool
          (fun i -> if i mod 5 = 3 then raise (Boom i) else i * 2)
          (Array.init 23 (fun i -> i))
      in
      Array.iteri
        (fun i o ->
          match o with
          | Pool.Done v ->
            Alcotest.(check bool) "done slot" true (i mod 5 <> 3);
            Alcotest.(check int) "value" (i * 2) v
          | Pool.Failed (Boom j, _) ->
            Alcotest.(check int) "failed slot" i j;
            Alcotest.(check bool) "failing index" true (i mod 5 = 3)
          | Pool.Failed (e, _) ->
            Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
        out)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_second_run_all_hits () =
  let dir = Helpers.fresh_dir () in
  let cache = Cache.create ~dir () in
  (* The pipeline counters a run left in the registry, which is then
     cleared for the next run (the cache's own traffic counters live
     under [<service>] and differ by design). *)
  let routine_counters () =
    let snap = Epre_telemetry.Metrics.snapshot () in
    Epre_telemetry.Metrics.reset_for_testing ();
    List.filter (fun e -> e.Epre_telemetry.Metrics.routine <> "<service>") snap
  in
  Epre_telemetry.Metrics.reset_for_testing ();
  let cold = Epre_workloads.Workloads.compile (Option.get (Epre_workloads.Workloads.find "crout")) in
  let cold_stats, cold_counts, cold_text =
    Service.optimize_program ~cache ~level:Pipeline.Partial cold
  in
  let cold_counters = routine_counters () in
  Alcotest.(check int) "cold run misses everything"
    (List.length cold_stats) cold_counts.Service.misses;
  Alcotest.(check int) "cold run hits nothing" 0 cold_counts.Service.hits;
  let warm = Epre_workloads.Workloads.compile (Option.get (Epre_workloads.Workloads.find "crout")) in
  let warm_stats, warm_counts, warm_text =
    Service.optimize_program ~cache ~level:Pipeline.Partial warm
  in
  Alcotest.(check bool) "cold run filled the registry" true (cold_counters <> []);
  Alcotest.(check bool) "warm run replays the cold run's counters" true
    (routine_counters () = cold_counters);
  Alcotest.(check int) "warm run hits everything"
    (List.length warm_stats) warm_counts.Service.hits;
  Alcotest.(check int) "warm run misses nothing" 0 warm_counts.Service.misses;
  Alcotest.(check string) "cold text is the printed program" (program_text cold)
    cold_text;
  Alcotest.(check string) "identical optimized text" cold_text warm_text;
  Alcotest.(check bool) "identical stats" true (cold_stats = warm_stats)

let test_cache_survives_reopen () =
  (* A second Cache.t over the same directory (a new process, in effect)
     sees the first one's entries. *)
  let dir = Helpers.fresh_dir () in
  let w = Option.get (Epre_workloads.Workloads.find "dot") in
  let _, _, first =
    Service.optimize_program ~cache:(Cache.create ~dir ())
      ~level:Pipeline.Partial (Epre_workloads.Workloads.compile w)
  in
  let stats, counts, second =
    Service.optimize_program ~cache:(Cache.create ~dir ())
      ~level:Pipeline.Partial (Epre_workloads.Workloads.compile w)
  in
  Alcotest.(check int) "all hits after reopen" (List.length stats)
    counts.Service.hits;
  Alcotest.(check string) "same text" first second

let test_cache_fingerprint_invalidation () =
  (* Same input at a different level must miss: the fingerprint is part
     of the key. *)
  let dir = Helpers.fresh_dir () in
  let cache = Cache.create ~dir () in
  let w = Option.get (Epre_workloads.Workloads.find "saxpy") in
  let _ =
    Service.optimize_program ~cache ~level:Pipeline.Partial
      (Epre_workloads.Workloads.compile w)
  in
  let stats, counts, _ =
    Service.optimize_program ~cache ~level:Pipeline.Reassociation
      (Epre_workloads.Workloads.compile w)
  in
  Alcotest.(check int) "other level misses" (List.length stats)
    counts.Service.misses;
  Alcotest.(check bool) "fingerprints differ" true
    (Pipeline.fingerprint ~level:Pipeline.Partial
    <> Pipeline.fingerprint ~level:Pipeline.Reassociation)

let corrupt_entries dir f =
  let count = ref 0 in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat dir sub in
      if Sys.is_directory subdir then
        Array.iter
          (fun file ->
            if Filename.check_suffix file ".json" then begin
              incr count;
              f (Filename.concat subdir file)
            end)
          (Sys.readdir subdir))
    (Sys.readdir dir);
  !count

let test_cache_poisoned_entry_recompiles () =
  let dir = Helpers.fresh_dir () in
  let cache = Cache.create ~dir () in
  let w = Option.get (Epre_workloads.Workloads.find "euclid") in
  let _, _, reference =
    Service.optimize_program ~cache ~level:Pipeline.Partial
      (Epre_workloads.Workloads.compile w)
  in
  (* Corrupt every stored entry in a different way each time. *)
  List.iter
    (fun corruption ->
      let n =
        corrupt_entries dir (fun path ->
            let oc = open_out_bin path in
            output_string oc corruption;
            close_out oc)
      in
      Alcotest.(check bool) "entries exist to corrupt" true (n > 0);
      let stats, counts, text =
        Service.optimize_program ~cache ~level:Pipeline.Partial
          (Epre_workloads.Workloads.compile w)
      in
      (* Every poisoned entry is a miss (plus a deletion), and the result
         is the honest recompile. *)
      Alcotest.(check int) "poisoned -> recompile" (List.length stats)
        counts.Service.misses;
      Alcotest.(check string) "recompiled text equals reference" reference text)
    [ "not json at all";
      "{\"schema\":\"epre/cache-entry/v1\",\"key\":\"wrong\"}";
      "{\"schema\":\"something/else\",\"iloc\":\"x\"}" ]

(* The entry file of every routine of [prog] at [level], keyed as
   [Service.optimize_program] keys them. *)
let entry_keys ~level prog =
  let fingerprint = Pipeline.fingerprint ~level in
  List.map
    (fun r -> Cache.key ~iloc:(Ir_text.routine_to_string r) ~fingerprint)
    (Program.routines prog)

let test_cache_hit_is_stored_text () =
  (* A hit serves the stored text verbatim: the warm result is the
     concatenation of the stored entries, and byte-equal to printing an
     uncached compile. *)
  let cache = Cache.create ~dir:(Helpers.fresh_dir ()) () in
  let prog () = Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source 3) in
  let level = Pipeline.Partial in
  ignore (Service.optimize_program ~cache ~level (prog ()));
  let stats, counts, warm = Service.optimize_program ~cache ~level (prog ()) in
  Alcotest.(check int) "all hits" (List.length stats) counts.Service.hits;
  let stored =
    List.map
      (fun key ->
        match Cache.find cache ~key with
        | Some (iloc, _) -> iloc ^ "\n"
        | None -> Alcotest.fail "entry missing")
      (entry_keys ~level (prog ()))
  in
  Alcotest.(check string) "hit text == stored iloc" (String.concat "" stored) warm;
  let uncached = prog () in
  ignore (Service.optimize_program ~level uncached);
  Alcotest.(check string) "hit text == uncached print_program"
    (program_text uncached) warm

let test_cache_v1_entry_rewritten () =
  (* An entry in the previous schema (no digest) is a counted poisoned
     miss, and the recompile rewrites it in the current schema. *)
  let dir = Helpers.fresh_dir () in
  let cache = Cache.create ~dir () in
  let w = Option.get (Epre_workloads.Workloads.find "crout") in
  let level = Pipeline.Partial in
  let _, _, reference =
    Service.optimize_program ~cache ~level (Epre_workloads.Workloads.compile w)
  in
  let schema_of path =
    match Tjson.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> Tjson.member "schema" j
    | Error m -> Alcotest.failf "entry does not parse: %s" m
  in
  let n =
    corrupt_entries dir (fun path ->
        match Tjson.parse (In_channel.with_open_bin path In_channel.input_all) with
        | Ok (Tjson.Obj fields) ->
          let v1 =
            List.filter_map
              (function
                | "schema", _ -> Some ("schema", Tjson.Str "epre/cache-entry/v1")
                | "iloc_md5", _ -> None
                | kv -> Some kv)
              fields
          in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (Tjson.to_string (Tjson.Obj v1)))
        | _ -> Alcotest.fail "entry is not an object")
  in
  Alcotest.(check bool) "entries to downgrade" true (n > 0);
  let poisoned () =
    Epre_telemetry.Metrics.get ~routine:"<service>" ~name:"cache.poisoned"
  in
  let before = poisoned () in
  let _, counts, text =
    Service.optimize_program ~cache ~level (Epre_workloads.Workloads.compile w)
  in
  Alcotest.(check int) "v1 entries miss" n counts.Service.misses;
  Alcotest.(check int) "v1 entries counted poisoned" n (poisoned () - before);
  Alcotest.(check string) "recompiled text" reference text;
  ignore
    (corrupt_entries dir (fun path ->
         Alcotest.(check bool) "rewritten as v2" true
           (schema_of path = Some (Tjson.Str "epre/cache-entry/v2"))));
  let _, counts, text =
    Service.optimize_program ~cache ~level (Epre_workloads.Workloads.compile w)
  in
  Alcotest.(check int) "rewritten entries hit" n counts.Service.hits;
  Alcotest.(check string) "hit text" reference text

let test_cache_eviction () =
  let dir = Helpers.fresh_dir () in
  let cache = Cache.create ~dir ~max_entries:4 () in
  List.iteri
    (fun i w ->
      if i < 6 then
        ignore
          (Service.optimize_program ~cache ~level:Pipeline.Baseline
             (Epre_workloads.Workloads.compile w)))
    Epre_workloads.Workloads.all;
  let entries = corrupt_entries dir (fun _ -> ()) in
  Alcotest.(check bool)
    (Printf.sprintf "bounded (%d entries)" entries)
    true (entries <= 4)

let some_stats () =
  let prog =
    Epre_workloads.Workloads.compile
      (Option.get (Epre_workloads.Workloads.find "saxpy"))
  in
  let stats, _, _ = Service.optimize_program ~level:Pipeline.Baseline prog in
  List.hd stats

let test_cache_byte_budget () =
  (* Entries whose total size exceeds --cache-max-bytes are evicted
     oldest-first down to the budget, independent of the entry-count
     bound. *)
  let dir = Helpers.fresh_dir () in
  let budget = 8192 in
  let cache = Cache.create ~dir ~max_bytes:budget () in
  let stats = some_stats () in
  let fingerprint = Pipeline.fingerprint ~level:Pipeline.Baseline in
  for i = 1 to 12 do
    (* ~1.6 KB per entry: 12 of them overflow an 8 KB budget. *)
    let iloc = String.concat "\n" (List.init 40 (fun j ->
        Printf.sprintf "  r%d_%d <- add r%d, r%d" i j j (j + 1))) in
    let key = Cache.key ~iloc ~fingerprint in
    Cache.store cache ~key ~fingerprint ~iloc ~stats;
    (* Spread mtimes so oldest-first has a defined order even on coarse
       filesystem timestamp granularity. *)
    Unix.sleepf 0.002
  done;
  Alcotest.(check bool)
    (Printf.sprintf "bytes bounded (%d <= %d)" (Cache.byte_count cache) budget)
    true
    (Cache.byte_count cache <= budget);
  Alcotest.(check bool)
    (Printf.sprintf "entries evicted (%d < 12)" (Cache.entry_count cache))
    true
    (Cache.entry_count cache < 12)

let test_cache_sweep_temp () =
  (* A crashed writer's orphaned entry*.tmp is reclaimed by the sweep;
     a fresh one (a live concurrent writer's) survives. *)
  let dir = Helpers.fresh_dir () in
  let cache = Cache.create ~dir () in
  let shard = Filename.concat dir "ab" in
  List.iter
    (fun d ->
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ dir; shard ];
  let stale = Filename.concat shard "entry-stale.tmp" in
  let fresh = Filename.concat shard "entry-fresh.tmp" in
  List.iter
    (fun p ->
      let oc = open_out_bin p in
      output_string oc "torn half-written entry";
      close_out oc)
    [ stale; fresh ];
  let old = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes stale old old;
  let swept = Cache.sweep_temp cache in
  Alcotest.(check int) "one orphan swept" 1 swept;
  Alcotest.(check bool) "stale gone" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh survives" true (Sys.file_exists fresh)

let test_cache_concurrent_stores () =
  (* Two Cache.t instances over one directory (two processes, in effect)
     store overlapping keys from separate domains. The file lock keeps
     the entries and the accounting intact: a third, fresh handle must
     afterwards serve every routine as a hit, byte-identical to an
     undisturbed serial compile. *)
  let dir = Helpers.fresh_dir () in
  let progs () =
    List.init 6 (fun i ->
        Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source (i + 1)))
  in
  let writer () =
    let cache = Cache.create ~dir () in
    List.iter
      (fun p ->
        ignore (Service.optimize_program ~cache ~level:Pipeline.Partial p))
      (progs ())
  in
  let other = Domain.spawn writer in
  writer ();
  Domain.join other;
  let reference =
    List.map
      (fun p ->
        ignore (Service.optimize_program ~level:Pipeline.Partial p);
        program_text p)
      (progs ())
  in
  let cache = Cache.create ~dir () in
  List.iteri
    (fun i p ->
      let stats, counts, text =
        Service.optimize_program ~cache ~level:Pipeline.Partial p
      in
      Alcotest.(check int)
        (Printf.sprintf "program %d all hits" i)
        (List.length stats) counts.Service.hits;
      Alcotest.(check string)
        (Printf.sprintf "program %d text intact" i)
        (List.nth reference i) text)
    (progs ())

let test_cache_find_survives_torn_read () =
  (* chaos:cache-corrupt rewrites an entry in place (truncate, then
     write) while a worker on another domain may be reading the same key.
     A read that loses the race sees the file shrink under it; [find]
     must take the poisoned-entry path, never raise. One domain stores and
     corrupts one key in a loop while this one looks it up for 0.5 s. *)
  let cache = Cache.create ~dir:(Helpers.fresh_dir ()) () in
  let prog =
    Epre_workloads.Workloads.compile (Option.get (Epre_workloads.Workloads.find "saxpy"))
  in
  let stats, _, _ = Service.optimize_program ~level:Pipeline.Baseline prog in
  let stats = List.hd stats in
  let iloc = Ir_text.routine_to_string (List.hd (Program.routines prog)) in
  let fingerprint = Pipeline.fingerprint ~level:Pipeline.Baseline in
  let key = Cache.key ~iloc ~fingerprint in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Cache.store cache ~key ~fingerprint ~iloc ~stats;
          Cache.corrupt cache ~key
        done)
  in
  let finds = ref 0 and raised = ref [] in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 0.5 do
    incr finds;
    try ignore (Cache.find cache ~key) with e -> raised := Printexc.to_string e :: !raised
  done;
  Atomic.set stop true;
  Domain.join writer;
  Alcotest.(check (list string))
    (Printf.sprintf "exceptions in %d finds" !finds)
    [] (List.sort_uniq compare !raised)

(* Zipf-shaped traffic as (id, ILOC) pairs: of 12 generated programs,
   the one of rank r is submitted 12/r times, as job-1, job-2, ... Round
   k submits every program whose rank r has 12/r > k. *)
let zipf_traffic () =
  let distinct = 12 in
  let corpus =
    Array.init distinct (fun i ->
        program_text
          (Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source (i + 1))))
  in
  let ranks =
    List.concat
      (List.init distinct (fun k ->
           List.filter
             (fun i -> distinct / (i + 1) > k)
             (List.init distinct Fun.id)))
  in
  List.mapi (fun n i -> (Printf.sprintf "job-%d" (n + 1), corpus.(i))) ranks

let test_zipf_jobs_shared_cache () =
  (* Zipf traffic through [run_job] across domains on one shared cache. A
     serial uncached run, a cold 2-worker run and a warm rerun must agree
     on every (id, ok, iloc); the cold run already hits on repeats, and
     the warm run is nothing but hits. *)
  let jobs =
    List.map
      (fun (id, iloc) ->
        { Service.id; level = Pipeline.Partial; input = Service.Iloc iloc; emit = true })
      (zipf_traffic ())
  in
  let run ~workers ?cache () =
    Pool.with_pool ~jobs:workers (fun pool ->
        Pool.map_list pool (Service.run_job ?cache) jobs)
  in
  let view =
    List.map (fun (r : Service.result_line) ->
        (r.Service.job_id, r.Service.ok, r.Service.iloc))
  in
  let totals =
    List.fold_left
      (fun (h, m) (r : Service.result_line) ->
        (h + r.Service.job_counts.Service.hits,
         m + r.Service.job_counts.Service.misses))
      (0, 0)
  in
  let serial = run ~workers:1 () in
  let cache = Cache.create ~dir:(Helpers.fresh_dir ()) () in
  let cold = run ~workers:2 ~cache () in
  let warm = run ~workers:2 ~cache () in
  let results = Alcotest.(list (triple string bool (option string))) in
  Alcotest.(check bool) "serial all ok" true
    (List.for_all (fun (_, ok, _) -> ok) (view serial));
  Alcotest.check results "cold == serial" (view serial) (view cold);
  Alcotest.check results "warm == serial" (view serial) (view warm);
  let hits, misses = totals cold in
  let warm_hits, warm_misses = totals warm in
  Alcotest.(check bool) "cold run hits on repeats" true (hits > 0);
  Alcotest.(check int) "warm run misses nothing" 0 warm_misses;
  Alcotest.(check int) "warm run hits every cold lookup" (hits + misses)
    warm_hits

(* ------------------------------------------------------------------ *)
(* Failure policy *)

module Chaos = Epre_harness.Chaos

(* A job id the given fault deterministically strikes (or spares). *)
let chaos_id fault ~firing =
  let rec find i =
    let id = Printf.sprintf "job-%d" i in
    if Chaos.fires fault ~key:id = firing then id
    else if i > 10_000 then Alcotest.fail "no id found"
    else find (i + 1)
  in
  find 1

let iloc_job id =
  { Service.id;
    level = Pipeline.Partial;
    input =
      Service.Iloc
        (program_text
           (Epre_workloads.Workloads.compile
              (Option.get (Epre_workloads.Workloads.find "saxpy"))));
    emit = true }

let test_run_job_timeout () =
  (* chaos:slow-job sleeps past the deadline; the poll hook cancels at a
     pass boundary and the outcome is timeout. Without the ladder the
     deadline is terminal: one attempt. *)
  let id = chaos_id Chaos.Slow_job ~firing:true in
  let policy = { Service.Policy.timeout_ms = Some 25.0; degrade = false } in
  let r = Service.run_job ~policy ~chaos:[ Chaos.Slow_job ] (iloc_job id) in
  Alcotest.(check bool) "not ok" false r.Service.ok;
  Alcotest.(check bool) "outcome timeout" true
    (r.Service.outcome = Service.Timed_out);
  Alcotest.(check int) "deadline is terminal: one attempt" 1 r.Service.attempts;
  (* A spared job under the same policy completes normally. *)
  let spared = chaos_id Chaos.Slow_job ~firing:false in
  let policy = { policy with timeout_ms = Some 10_000.0 } in
  let r2 = Service.run_job ~policy ~chaos:[ Chaos.Slow_job ] (iloc_job spared) in
  Alcotest.(check bool) "spared job ok" true
    (r2.Service.ok && r2.Service.outcome = Service.Succeeded)

let test_run_job_branch_table () =
  (* One row per [run_job] branch, for a generated program requested at
     partial with the degradation ladder on: the served level, the
     attempt count, the reported request, and how many ladder steps the
     job took. *)
  let iloc =
    program_text (Epre_frontend.Frontend.compile_string (Epre_fuzz.Gen.source 1))
  in
  let job id = { Service.id; level = Pipeline.Partial; input = Service.Iloc iloc;
                 emit = true } in
  let degrade = { Service.Policy.default with degrade = true } in
  let dce_open () =
    let b = Breaker.create ~threshold:1 ~probe_after:100 () in
    Breaker.failure b ~pass:"dce";
    Some b
  in
  let rows =
    [ ( "dce breaker opened by hand", job "pin-dce", degrade, [], dce_open,
        ("ok", 1, "partial", None, 0) );
      ( "unparsable ILOC",
        { (job "pin-bad") with Service.input = Service.Iloc "routine ) garbage" },
        degrade, [], (fun () -> None),
        ("error", 1, "partial", None, 0) );
      ( "slow-job past a 25 ms deadline",
        job (chaos_id Chaos.Slow_job ~firing:true),
        { degrade with timeout_ms = Some 25.0 }, [ Chaos.Slow_job ],
        (fun () -> None),
        ("timeout", 2, "baseline", None, 1) ) ]
  in
  let steps () =
    Epre_telemetry.Metrics.get ~routine:"<service>" ~name:"serve.degrade_step"
  in
  List.iter
    (fun (name, job, policy, chaos, breaker, expected) ->
      let before = steps () in
      let r = Service.run_job ~policy ~chaos ?breaker:(breaker ()) job in
      let level = Pipeline.level_to_string in
      let got =
        ( Service.job_outcome_to_string r.Service.outcome,
          r.Service.attempts,
          level r.Service.job_level,
          Option.map level r.Service.requested,
          steps () - before )
      in
      let row =
        Alcotest.(pair (pair string int) (triple string (option string) int))
      in
      let shape (o, a, l, q, s) = ((o, a), (l, q, s)) in
      Alcotest.check row name (shape expected) (shape got))
    rows

(* ------------------------------------------------------------------ *)
(* Serve protocol *)

let test_job_parsing () =
  (match Service.job_of_line ~default_id:"d" {|{"workload":"saxpy"}|} with
  | Ok j ->
    Alcotest.(check string) "default id" "d" j.Service.id;
    Alcotest.(check bool) "default level" true (j.Service.level = Pipeline.Partial);
    Alcotest.(check bool) "default emit" true j.Service.emit
  | Error m -> Alcotest.failf "parse failed: %s" m);
  List.iter
    (fun line ->
      match Service.job_of_line ~default_id:"d" line with
      | Ok _ -> Alcotest.failf "expected %s to be rejected" line
      | Error _ -> ())
    [ "not json"; "{}"; {|{"workload":"a","iloc":"b"}|};
      {|{"workload":"a","level":"warp"}|} ]

(* Run [Service.serve] over [input] (a full NDJSON batch as one string),
   returning the summary (or [Error `Killed] if chaos:kill-self struck)
   and the emitted result lines. *)
let serve_to_lines ?cache ?batch ?policy ?chaos ?journal ?(resume = false)
    ?breaker ~jobs input =
  let in_path = Filename.temp_file "eprec-serve" ".jobs" in
  let out_path = Filename.temp_file "eprec-serve" ".out" in
  Out_channel.with_open_bin in_path (fun oc -> output_string oc input);
  let ic = open_in_bin in_path and out = open_out_bin out_path in
  let res =
    match
      Pool.with_pool ~jobs (fun pool ->
          Service.serve ?cache ?batch ?policy ?chaos ?journal ~resume ?breaker
            ~pool ~input:ic ~output:out ())
    with
    | s -> Ok s
    | exception Service.Killed -> Error `Killed
  in
  close_in_noerr ic;
  close_out_noerr out;
  let lines = In_channel.with_open_bin out_path In_channel.input_lines in
  Sys.remove in_path;
  Sys.remove out_path;
  (res, lines)

let summary = function Ok s -> s | Error `Killed -> Alcotest.fail "serve was killed"

(* Field [f] of a result line. *)
let member f l =
  match Tjson.parse l with
  | Ok j -> Tjson.member f j
  | Error m -> Alcotest.failf "bad result line: %s" m

let str f l = match member f l with Some (Tjson.Str s) -> Some s | _ -> None

let id_of l = match str "id" l with Some id -> id | None -> Alcotest.fail "result without id"

(* A result line with its latency field dropped — wall clock is the one
   legitimately non-reproducible field. *)
let norm_line l =
  match Tjson.parse l with
  | Ok (Tjson.Obj ms) ->
    Tjson.to_string (Tjson.Obj (List.filter (fun (k, _) -> k <> "latency_ms") ms))
  | Ok _ -> Alcotest.failf "result line is not an object: %s" l
  | Error m -> Alcotest.failf "bad result line: %s" m

(* A file job reads a .iloc file as ILOC: its result line is the one the
   same text gives as an inline iloc job. *)
let test_file_job_reads_iloc () =
  let job = iloc_job "iloc-file" in
  let text = match job.Service.input with Service.Iloc t -> t | _ -> assert false in
  let path = Filename.temp_file "eprec-test" ".iloc" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let line j = norm_line (Tjson.to_string (Service.result_to_json (Service.run_job j))) in
  let inline = line job in
  Alcotest.(check bool) "the inline job succeeds" true
    (Helpers.contains_substring ~needle:{|"ok":true|} inline);
  Alcotest.(check string) "file job = inline job" inline
    (line { job with Service.input = Service.File path })

(* An inline ILOC job that does not parse or validate reports what a file
   job naming the same text reports, "line N: " in place of "path:N: ". *)
let test_inline_iloc_errors_match_file_job () =
  let check what text want =
    let path = Filename.temp_file "eprec-test" ".iloc" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    let error input =
      match (Service.run_job { (iloc_job what) with Service.input }).Service.error with
      | Some m -> m
      | None -> Alcotest.failf "%s: the job succeeded" what
    in
    Alcotest.(check string) (what ^ ": file job") (path ^ ":" ^ want) (error (Service.File path));
    Alcotest.(check string) (what ^ ": inline job") ("line " ^ want) (error (Service.Iloc text))
  in
  check "bad instruction"
    "routine main() entry B0 regs 1 {\nB0:\n  r0 = bogus\n  return r0\n}\n"
    "3: cannot parse instruction r0 = bogus";
  check "jump to a missing block"
    "routine g() entry B0 regs 0 {\nB0:\n  return\n}\n\n# main\nroutine main() entry B0 regs 0 {\nB0:\n  jump B7\n}\n"
    "7: main: block 0 jumps to missing block 7"

let test_serve_stream () =
  let input =
    String.concat "\n"
      [ {|{"id":"a","workload":"saxpy","emit":false}|};
        "";
        "garbage line";
        {|{"id":"b","workload":"saxpy","emit":false}|};
        {|{"id":"c","workload":"nope"}|} ]
    ^ "\n"
  in
  let res, lines =
    serve_to_lines ~cache:(Cache.create ~dir:(Helpers.fresh_dir ()) ()) ~batch:2 ~jobs:2 input
  in
  let summary = summary res in
  Alcotest.(check int) "jobs" 4 summary.Service.jobs;
  Alcotest.(check int) "ok" 2 summary.Service.succeeded;
  Alcotest.(check int) "failed" 2 summary.Service.failed;
  Alcotest.(check bool) "repeat hit" true (summary.Service.total.Service.hits > 0);
  (* One result line per job, in input order, all valid JSON. *)
  Alcotest.(check int) "result lines" 4 (List.length lines);
  Alcotest.(check (list string)) "input order" [ "a"; "job-2"; "b"; "c" ]
    (List.map id_of lines)

let test_serve_duplicate_routine_iloc () =
  (* ILOC that names two routines [f] fails its own job with the parse
     error, and the jobs around it still run. *)
  let job id fields = Tjson.to_string (Tjson.Obj (("id", Tjson.Str id) :: fields)) in
  let input =
    String.concat "\n"
      [ job "before" [ ("workload", Tjson.Str "saxpy"); ("emit", Tjson.Bool false) ];
        job "dup" [ ("iloc", Tjson.Str Test_ir_text.duplicate_routine_iloc) ];
        job "after" [ ("workload", Tjson.Str "saxpy"); ("emit", Tjson.Bool false) ] ]
    ^ "\n"
  in
  let res, lines = serve_to_lines ~jobs:1 input in
  let summary = summary res in
  Alcotest.(check int) "jobs" 3 summary.Service.jobs;
  Alcotest.(check int) "failed" 1 summary.Service.failed;
  Alcotest.(check (list string)) "one result per job, in order" [ "before"; "dup"; "after" ]
    (List.map id_of lines);
  match List.map (fun l -> (member "ok" l, str "error" l)) lines with
  | [ (Some (Tjson.Bool true), None); (Some (Tjson.Bool false), Some e); (Some (Tjson.Bool true), None) ] ->
    Alcotest.(check bool) ("error names the duplicate: " ^ e) true
      (Helpers.contains_substring ~needle:"duplicate routine f" e)
  | _ -> Alcotest.failf "unexpected results:\n%s" (String.concat "\n" lines)

let test_serve_malformed_line_numbers () =
  (* A malformed line becomes an in-order error result carrying the
     *physical* input line number — blank lines count, so the number can
     differ from the job sequence number. *)
  let input =
    String.concat "\n"
      [ "";
        {|{"id":"good","workload":"saxpy","emit":false}|};
        "";
        "{ truncated";
        {|{"workload":"saxpy","level":"warp"}|};
        {|{"id":"tail","workload":"saxpy","emit":false}|} ]
    ^ "\n"
  in
  let res, lines = serve_to_lines ~jobs:2 input in
  let summary = summary res in
  Alcotest.(check int) "jobs" 4 summary.Service.jobs;
  Alcotest.(check int) "failed" 2 summary.Service.failed;
  let results =
    List.map
      (fun l ->
        let line = match member "line" l with Some (Tjson.Int n) -> Some n | _ -> None in
        (id_of l, line, str "error" l))
      lines
  in
  match results with
  | [ (id1, None, None); (id2, Some l2, Some e2); (id3, Some l3, Some e3);
      (id4, None, None) ] ->
    Alcotest.(check string) "first" "good" id1;
    Alcotest.(check string) "last" "tail" id4;
    (* Physical lines: blank line 1, good job on 2, blank 3, garbage on 4,
       bad level on 5, tail on 6. *)
    Alcotest.(check int) "garbage line number" 4 l2;
    Alcotest.(check int) "bad-level line number" 5 l3;
    Alcotest.(check bool) "error names its line" true
      (String.length e2 >= 7 && String.sub e2 0 7 = "line 4:");
    Alcotest.(check bool) "error names its line (2)" true
      (String.length e3 >= 7 && String.sub e3 0 7 = "line 5:");
    Alcotest.(check bool) "synthesized ids" true (id2 = "job-2" && id3 = "job-3")
  | rs -> Alcotest.failf "unexpected result shape (%d results)" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Crash safety: journal, kill/resume, ladder, breakers *)

let test_journal_roundtrip () =
  let dir = Helpers.fresh_dir () in
  let path = Filename.concat dir "journal.jsonl" in
  let j = Journal.open_ ~path () in
  Journal.append j
    [ Journal.entry ~kind:"accepted" ~seq:1 ~id:"a" ~key:"k1"
        ~fields:[ ("line", Tjson.Int 1) ] ();
      Journal.entry ~kind:"started" ~seq:1 ~id:"a" ~key:"k1"
        ~fields:[ ("fingerprint", Tjson.Str "fp") ] () ];
  Journal.append j
    [ Journal.entry ~kind:"done" ~seq:1 ~id:"a" ~key:"k1"
        ~fields:[ ("outcome", Tjson.Str "ok") ] () ];
  Journal.close j;
  (* A crash mid-append leaves a torn trailing line; load must skip it. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"type\":\"done\",\"seq\":2";
  close_out oc;
  let entries = Journal.load ~path in
  Alcotest.(check int) "torn tail skipped" 3 (List.length entries);
  (match entries with
  | first :: _ ->
    Alcotest.(check string) "kind" "accepted" first.Journal.kind;
    Alcotest.(check int) "seq" 1 first.Journal.seq;
    Alcotest.(check bool) "extra field preserved" true
      (List.mem_assoc "line" first.Journal.fields)
  | [] -> Alcotest.fail "no entries");
  Alcotest.(check (list (pair int string)))
    "only done/failed count as emitted"
    [ (1, "k1") ]
    (Journal.emitted entries);
  (* Every record is stamped with the writing journal's run id, and the
     run filter keeps foreign runs out of the replay set. *)
  let r = match Journal.last_run entries with
    | Some r -> r
    | None -> Alcotest.fail "records not run-stamped"
  in
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "stamped" (Some r) (Journal.run_of e))
    entries;
  Alcotest.(check (list (pair int string)))
    "emitted filtered by run id" [ (1, "k1") ]
    (Journal.emitted ~run:r entries);
  Alcotest.(check (list (pair int string)))
    "foreign run id matches nothing" []
    (Journal.emitted ~run:"someone-else" entries)

let test_journal_run_isolation () =
  (* The stale-journal hazard: batch 1 completes (done records on disk);
     the same input is re-served in the same cache dir WITHOUT --resume;
     that run is killed mid-way and resumed. The resume must not let
     batch 1's done records — same (seq, key)! — masquerade as batch 2's
     and silently swallow its lines. *)
  let dir = Helpers.fresh_dir () in
  let path = Filename.concat dir "journal.jsonl" in
  let j1 = Journal.open_ ~path () in
  Journal.append j1
    [ Journal.entry ~kind:"done" ~seq:1 ~id:"a" ~key:"k1"
        ~fields:[ ("outcome", Tjson.Str "ok") ] () ];
  Journal.close j1;
  (* Batch 2, fresh serve: the completed run's journal is truncated (no
     live holder) and records carry a new run id. *)
  let j2 = Journal.open_ ~path () in
  Alcotest.(check int) "fresh open truncates a stale journal" 0
    (List.length (Journal.entries j2));
  Alcotest.(check bool) "fresh open mints a new run id" true
    (Journal.run j2 <> Journal.run j1);
  Journal.append j2
    [ Journal.entry ~kind:"started" ~seq:1 ~id:"a" ~key:"k1" () ];
  Journal.close j2;
  (* "Crash" after started; --resume continues batch 2's run id and must
     re-run seq 1: no done record in THIS run. *)
  let j3 = Journal.open_ ~mode:`Resume ~path () in
  Alcotest.(check string) "resume continues the last run id"
    (Journal.run j2) (Journal.run j3);
  Alcotest.(check (list (pair int string)))
    "stale done records do not count as emitted" []
    (Journal.emitted ~run:(Journal.run j3) (Journal.entries j3));
  (* The resumed incarnation finishes the job; a chained resume now sees
     it as emitted. *)
  Journal.append j3
    [ Journal.entry ~kind:"done" ~seq:1 ~id:"a" ~key:"k1"
        ~fields:[ ("outcome", Tjson.Str "ok") ] () ];
  Journal.close j3;
  let j4 = Journal.open_ ~mode:`Resume ~path () in
  Alcotest.(check (list (pair int string)))
    "chained resume honors the whole logical batch"
    [ (1, "k1") ]
    (Journal.emitted ~run:(Journal.run j4) (Journal.entries j4));
  Journal.close j4

let test_journal_open_failure () =
  (* An unusable journal path raises [Sys_error], which serve reports as
     a one-line diagnostic: a directory in the file's place, and a cache
     directory that is a file. *)
  let dir = Helpers.fresh_dir () in
  let squatted = Filename.concat dir "journal.jsonl" in
  Sys.mkdir dir 0o755;
  Sys.mkdir squatted 0o755;
  let file = Filename.concat dir "plain" in
  close_out (open_out_bin file);
  List.iter
    (fun path ->
      match Journal.open_ ~path () with
      | j ->
        Journal.close j;
        Alcotest.failf "opened %s" path
      | exception Sys_error m ->
        Alcotest.(check bool) "message names the path" true
          (String.length m > String.length path
          && String.sub m 0 (String.length path) = path))
    [ squatted; Filename.concat file "journal.jsonl" ]

let test_serve_kill_resume_byte_identical () =
  (* The crash drill, in-process: a run killed mid-batch by
     chaos:kill-self, resumed from its journal, must complete the batch
     such that killed-output ++ resumed-output is byte-identical (modulo
     wall clock) to an undisturbed run over the same input. *)
  let input =
    String.concat ""
      (List.init 12 (fun i ->
           Printf.sprintf
             "{\"id\":\"j%d\",\"workload\":\"saxpy\",\"level\":\"distribution\",\"emit\":false}\n"
             (i + 1)))
  in
  let ref_res, ref_lines =
    serve_to_lines ~cache:(Cache.create ~dir:(Helpers.fresh_dir ()) ()) ~batch:4
      ~jobs:1 input
  in
  (match ref_res with
  | Ok s -> Alcotest.(check int) "reference all ok" 12 s.Service.succeeded
  | Error `Killed -> Alcotest.fail "reference run must not be killed");
  let saved = !Chaos.default_seed in
  Fun.protect ~finally:(fun () -> Chaos.default_seed := saved) @@ fun () ->
  (* Seed 1 deterministically fires kill-self on a later batch, so some
     output precedes the crash. *)
  Chaos.default_seed := 1;
  let dir = Helpers.fresh_dir () in
  let jpath = Filename.concat dir "journal.jsonl" in
  let journal = Journal.open_ ~path:jpath () in
  let killed_res, killed_lines =
    serve_to_lines ~cache:(Cache.create ~dir ()) ~batch:4 ~jobs:1
      ~chaos:[ Chaos.Kill_self ] ~journal input
  in
  Journal.close journal;
  Alcotest.(check bool) "killed mid-batch" true (killed_res = Error `Killed);
  let emitted = List.length killed_lines in
  Alcotest.(check bool)
    (Printf.sprintf "partial output (%d lines)" emitted)
    true
    (emitted > 0 && emitted < 12);
  Chaos.default_seed := saved;
  let journal = Journal.open_ ~mode:`Resume ~path:jpath () in
  let resume_res, resume_lines =
    serve_to_lines ~cache:(Cache.create ~dir ()) ~batch:4 ~jobs:1 ~journal
      ~resume:true input
  in
  Journal.close journal;
  (match resume_res with
  | Ok s ->
    Alcotest.(check int) "emitted prefix replayed, not re-run" emitted
      s.Service.replayed;
    Alcotest.(check int) "in-flight jobs re-run exactly once" (12 - emitted)
      s.Service.jobs;
    Alcotest.(check int) "no failures" 0 s.Service.failed
  | Error `Killed -> Alcotest.fail "resume run must complete");
  Alcotest.(check (list string)) "merged output == undisturbed run"
    (List.map norm_line ref_lines)
    (List.map norm_line (killed_lines @ resume_lines))

(* The lowest level whose pipeline contains the deterministically
   poisoned pass — requesting it guarantees chaos:pass-poison strikes. *)
let poisoned_level () =
  let target =
    match Service.poisoned_pass () with
    | Some p -> p
    | None -> Alcotest.fail "no poison candidates"
  in
  let level =
    List.find
      (fun l -> List.mem target (Pipeline.level_stages ~level:l))
      Pipeline.all_levels
  in
  (target, level)

let test_degraded_byte_identical_and_oracle () =
  (* Ladder property, over fuzz programs: a degraded result must be
     byte-identical to a direct serial run at the degraded level, and
     observationally equal to the unoptimized (-O0) program. *)
  let _, requested = poisoned_level () in
  let policy = { Service.Policy.default with degrade = true } in
  let fuel = Epre_harness.Harness.default_config.Epre_harness.Harness.fuel in
  List.iter
    (fun i ->
      let src = Epre_fuzz.Gen.source i in
      let job level =
        { Service.id = Printf.sprintf "fuzz-%d" i; level;
          input = Service.Source src; emit = true }
      in
      let r =
        Service.run_job ~policy ~chaos:[ Chaos.Pass_poison ] (job requested)
      in
      Alcotest.(check bool) "served" true r.Service.ok;
      Alcotest.(check bool) "outcome degraded" true
        (r.Service.outcome = Service.Degraded);
      Alcotest.(check bool) "served below request" true
        (r.Service.job_level < requested
        && r.Service.requested = Some requested);
      let direct = Service.run_job (job r.Service.job_level) in
      Alcotest.(check bool) "byte-identical to direct run at degraded level"
        true
        (r.Service.iloc = direct.Service.iloc);
      let reference = Epre_frontend.Frontend.compile_string src in
      let optimized = Ir_text.parse_program (Option.get r.Service.iloc) in
      Alcotest.(check bool) "oracle-equal to -O0" true
        (Epre_harness.Harness.obs_equal
           (Epre_harness.Harness.observe ~fuel reference)
           (Epre_harness.Harness.observe ~fuel optimized)))
    [ 1; 2; 3; 4; 5 ]

let test_degraded_from_warm_entries_validated () =
  (* A degraded job whose routines all hit is still translation-checked:
     served from honest warm entries it is degraded, and once its entry
     at the served level holds another program's (well-formed) text, that
     text is rejected at the exec tier instead of served. *)
  let _, requested = poisoned_level () in
  let policy = { Service.Policy.default with degrade = true } in
  let cache = Cache.create ~dir:(Helpers.fresh_dir ()) () in
  let src k = Printf.sprintf "fn main(): int { emit(%d); return %d; }" k k in
  let run () =
    Service.run_job ~cache ~policy ~chaos:[ Chaos.Pass_poison ]
      { Service.id = "warm-degraded"; level = requested;
        input = Service.Source (src 1); emit = true }
  in
  let cold = run () in
  Alcotest.(check bool) "cold run degraded" true (cold.Service.outcome = Service.Degraded);
  let served = cold.Service.job_level in
  let warm = run () in
  Alcotest.(check bool) "warm run degraded" true (warm.Service.outcome = Service.Degraded);
  Alcotest.(check bool) "warm run served from the cache" true
    (warm.Service.job_counts.Service.hits > 0);
  Alcotest.(check bool) "warm text == cold text" true
    (warm.Service.iloc = cold.Service.iloc);
  (* Plant [main] of [src 2], optimized at the served level, under the
     key of [src 1]'s [main]: a valid entry with the wrong behaviour. *)
  let _, _, other =
    Service.optimize_program ~level:served
      (Epre_frontend.Frontend.compile_string (src 2))
  in
  let other = String.sub other 0 (String.length other - 1) in
  let fingerprint = Pipeline.fingerprint ~level:served in
  (match
     entry_keys ~level:served (Epre_frontend.Frontend.compile_string (src 1))
   with
  | [ key ] -> (
    match Cache.find cache ~key with
    | Some (_, stats) -> Cache.store cache ~key ~fingerprint ~iloc:other ~stats
    | None -> Alcotest.fail "no warm entry at the served level")
  | _ -> Alcotest.fail "expected one routine");
  let invalid () =
    Epre_telemetry.Metrics.get ~routine:"<service>" ~name:"serve.degraded_invalid"
  in
  let before = invalid () in
  let r = run () in
  Alcotest.(check bool) "planted text rejected" true (invalid () > before);
  Alcotest.(check bool) "planted text never served" true
    (r.Service.iloc <> Some (other ^ "\n"))

let test_breaker_opens_and_short_circuits () =
  (* Three consecutive poisoned failures open the pass's breaker; from
     then on jobs skip the poisoned rung entirely (one attempt, served
     degraded) — 100% completion, no failures. *)
  let target, requested = poisoned_level () in
  let breaker = Breaker.create ~threshold:3 ~probe_after:100 () in
  let policy = { Service.Policy.default with degrade = true } in
  let opened () =
    Epre_telemetry.Metrics.get ~routine:"<service>" ~name:"breaker.open"
  in
  let opened_before = opened () in
  let results =
    List.init 6 (fun i ->
        Service.run_job ~policy ~chaos:[ Chaos.Pass_poison ] ~breaker
          { (iloc_job (Printf.sprintf "bp%d" i)) with Service.level = requested })
  in
  List.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "job %d completes" i) true
        (r.Service.ok && r.Service.outcome = Service.Degraded))
    results;
  let last = List.nth results 5 in
  Alcotest.(check int) "open breaker short-circuits: one attempt" 1
    last.Service.attempts;
  Alcotest.(check bool) "ladder pays an extra attempt before it opens" true
    ((List.hd results).Service.attempts > 1);
  Alcotest.(check bool)
    (Printf.sprintf "breaker open for %s" target)
    true
    (List.mem_assoc target (Breaker.snapshot breaker)
    && List.assoc target (Breaker.snapshot breaker) = "open");
  Alcotest.(check int) "one breaker.open under the service key" 1
    (opened () - opened_before)

let test_breaker_half_open_probe () =
  let b = Breaker.create ~threshold:2 ~probe_after:2 () in
  let passes = [ "p"; "q" ] in
  Alcotest.(check (list string)) "closed: nothing excluded" []
    (Breaker.excluded b ~passes);
  Breaker.failure b ~pass:"p";
  Breaker.failure b ~pass:"p";
  Alcotest.(check (list string)) "open after threshold" [ "p" ]
    (Breaker.excluded b ~passes);
  Alcotest.(check (list string)) "second skipped execution" [ "p" ]
    (Breaker.excluded b ~passes);
  (* probe_after = 2 executions have been skipped: the timer is spent,
     the breaker goes half-open, and the pass is *not* excluded — that
     run is its probe. *)
  Alcotest.(check (list string)) "half-open probe runs the pass" []
    (Breaker.excluded b ~passes);
  Breaker.failure b ~pass:"p";
  Alcotest.(check (list string)) "failed probe re-opens" [ "p" ]
    (Breaker.excluded b ~passes);
  Alcotest.(check (list string)) "re-opened: full countdown again" [ "p" ]
    (Breaker.excluded b ~passes);
  Alcotest.(check (list string)) "probe again" []
    (Breaker.excluded b ~passes);
  Breaker.success b ~pass:"p";
  Alcotest.(check (list string)) "successful probe closes" []
    (Breaker.excluded b ~passes);
  Alcotest.(check (list (pair string string))) "snapshot" [ ("p", "closed") ]
    (Breaker.snapshot b)

let test_breaker_counts_repeated_pass_once () =
  (* PRE levels run pre and dce twice. One pipeline execution must count
     once against each open breaker, so pre probes on the same schedule
     as constprop, which runs once. *)
  let b = Breaker.create ~threshold:1 ~probe_after:4 () in
  Breaker.failure b ~pass:"pre";
  Breaker.failure b ~pass:"constprop";
  let passes = Pipeline.level_stages ~level:Pipeline.Partial in
  for i = 1 to 4 do
    Alcotest.(check (list string))
      (Printf.sprintf "skipped execution %d" i)
      [ "pre"; "constprop" ]
      (Breaker.excluded b ~passes)
  done;
  Alcotest.(check (list string)) "both probe together" []
    (Breaker.excluded b ~passes);
  Alcotest.(check (list (pair string string))) "both half-open"
    [ ("constprop", "half-open"); ("pre", "half-open") ]
    (Breaker.snapshot b)

let test_serve_chaos_classes () =
  (* The serve-under-chaos contract, one row per service fault class:
     Zipf traffic through [Service.serve] at jobs:1 and at jobs:2, each
     run with a fresh cache and breaker. Chaos firing is a pure function
     of (seed, fault, job id), so both schedules face the same faults.
     Every row loses no line, keeps input order and agrees serial ==
     parallel on (id, ok, outcome, iloc); outside pass-poison every ok
     line is also byte-identical to an undisturbed serial reference.
     chaos:kill-self is the kill-and-resume case. Only slow-job carries a
     deadline: on a loaded host a deadline can strike an unfired job
     too, and then the two schedules differ. *)
  let input ~level =
    String.concat ""
      (List.map
         (fun (id, iloc) ->
           Tjson.to_string
             (Tjson.Obj
                [ ("id", Tjson.Str id); ("level", Tjson.Str (Pipeline.level_to_string level));
                  ("iloc", Tjson.Str iloc) ])
           ^ "\n")
         (zipf_traffic ()))
  in
  let serve ?policy ?chaos ~jobs input =
    let res, lines =
      serve_to_lines ~cache:(Cache.create ~dir:(Helpers.fresh_dir ()) ())
        ~breaker:(Breaker.create ()) ?policy ?chaos ~jobs input
    in
    ignore (summary res);
    List.map
      (fun l -> (id_of l, member "ok" l = Some (Tjson.Bool true), str "outcome" l, str "iloc" l))
      lines
  in
  let all_ok = List.for_all (fun (_, ok, _, _) -> ok) in
  let reference = serve ~jobs:1 (input ~level:Pipeline.Partial) in
  let total = List.length reference in
  Alcotest.(check bool) "reference all ok" true (all_ok reference);
  let policy ?timeout_ms ?(degrade = false) () =
    { Service.Policy.timeout_ms; degrade }
  in
  List.iter
    (fun (fault, level, policy, expect) ->
      let input = input ~level in
      let serial = serve ~policy ~chaos:[ fault ] ~jobs:1 input in
      let parallel = serve ~policy ~chaos:[ fault ] ~jobs:2 input in
      let n o = List.length (List.filter (fun (_, _, out, _) -> out = Some o) parallel) in
      let check what =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s (ok %d, timeout %d, error %d, degraded %d)"
             (Chaos.service_name fault) what (n "ok") (n "timeout") (n "error")
             (n "degraded"))
          true
      in
      let ids = List.map (fun (id, _, _, _) -> id) in
      check "no line lost, ids in input order" (ids parallel = ids reference);
      check "serial == parallel" (serial = parallel);
      if fault <> Chaos.Pass_poison then
        check "ok lines == reference"
          (List.for_all2
             (fun (_, ok, _, iloc) (_, _, _, r) -> (not ok) || iloc = r)
             parallel reference);
      List.iter (fun (what, holds) -> check what holds) (expect n (all_ok parallel)))
    [ ( Chaos.Slow_job, Pipeline.Partial, policy ~timeout_ms:300.0 (),
        fun n _ ->
          [ ("deadline struck", n "timeout" > 0); ("no error", n "error" = 0);
            ("ok + timeout = total", n "ok" + n "timeout" = total) ] );
      (Chaos.Cache_corrupt, Pipeline.Partial, policy (), fun n _ -> [ ("every job ok", n "ok" = total) ]);
      (Chaos.Cache_lock_hold, Pipeline.Partial, policy (), fun n _ -> [ ("every job ok", n "ok" = total) ]);
      ( Chaos.Pass_poison, snd (poisoned_level ()), policy ~degrade:true (),
        fun n all_ok ->
          [ ("every line ok", all_ok); ("no error", n "error" = 0);
            ("ladder degraded", n "degraded" > 0) ] ) ]

let test_serve_worker_crash_keeps_job_id () =
  (* A crash that escapes [run_job] — here a log sink raising on the
     job's own completion event — is contained to the job's slot, and
     its result line and every journal record of its seq carry the
     job's own id and level, not the positional ones. *)
  let module Log = Epre_telemetry.Log in
  Log.set_text_sink (fun line ->
      if Helpers.contains_substring ~needle:"serve.job: job mine:" line then
        failwith "log sink down");
  Log.set_stderr_level (Some Log.Info);
  let restore () =
    Log.set_stderr_level None;
    Log.set_text_sink prerr_endline
  in
  Fun.protect ~finally:restore @@ fun () ->
  let jpath = Filename.concat (Helpers.fresh_dir ()) "journal.jsonl" in
  let journal = Journal.open_ ~path:jpath () in
  let input =
    {|{"id":"mine","workload":"saxpy","level":"baseline","emit":false}|}
    ^ "\n" ^ {|{"id":"next","workload":"saxpy","emit":false}|} ^ "\n"
  in
  let res, lines = serve_to_lines ~journal ~jobs:1 input in
  Journal.close journal;
  let s = summary res in
  Alcotest.(check int) "both jobs reported" 2 s.Service.jobs;
  Alcotest.(check int) "one crash" 1 s.Service.failed;
  match lines with
  | [ crashed; next ] ->
    Alcotest.(check string) "crash keeps the job id" "mine" (id_of crashed);
    Alcotest.(check (option string)) "crash keeps the job level"
      (Some "baseline") (str "level" crashed);
    Alcotest.(check bool) "crash is reported" true
      (match str "error" crashed with
      | Some e -> Helpers.contains_substring ~needle:"worker crashed" e
      | None -> false);
    Alcotest.(check string) "next job" "next" (id_of next);
    Alcotest.(check (option string)) "next job still served" (Some "ok")
      (str "outcome" next);
    let seq1 = List.filter (fun e -> e.Journal.seq = 1) (Journal.load ~path:jpath) in
    Alcotest.(check (list string)) "seq 1 lifecycle"
      [ "accepted"; "started"; "failed" ]
      (List.map (fun e -> e.Journal.kind) seq1);
    List.iter
      (fun e -> Alcotest.(check string) ("journal id, " ^ e.Journal.kind) "mine" e.Journal.id)
      seq1
  | _ -> Alcotest.failf "expected two result lines:\n%s" (String.concat "\n" lines)

(* ------------------------------------------------------------------ *)
(* Side-channel I/O and open floor breakers never fail a job *)

(* A mixed batch: several levels and a repeated program. *)
let side_channel_input =
  String.concat "\n"
    [ {|{"id":"a","workload":"saxpy"}|};
      {|{"id":"b","workload":"dot","level":"baseline"}|};
      {|{"id":"c","workload":"crout","level":"distribution"}|};
      {|{"id":"d","workload":"saxpy"}|} ]
  ^ "\n"

let service_counter name = Epre_telemetry.Metrics.get ~routine:"<service>" ~name

let test_cache_store_failure_is_a_miss () =
  (* A cache whose lock file cannot be opened (a directory stands in its
     place) can store nothing. Each failed store is counted and the job
     keeps its freshly optimized routines, so the batch comes out
     exactly as a cacheless run. *)
  let dir = Helpers.fresh_dir () in
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir ".lock") 0o755;
  let _, reference = serve_to_lines ~jobs:1 side_channel_input in
  let failed_before = service_counter "cache.store_failed" in
  let stores_before = service_counter "cache.stores" in
  let cache = Cache.create ~dir () in
  let res, lines = serve_to_lines ~cache ~jobs:2 side_channel_input in
  let s = summary res in
  Alcotest.(check (pair int int)) "every job ok" (4, 4)
    (s.Service.jobs, s.Service.succeeded);
  Alcotest.(check (list string)) "output of a cacheless run"
    (List.map norm_line reference) (List.map norm_line lines);
  Alcotest.(check int) "every miss's store failed and was counted"
    s.Service.total.Service.misses
    (service_counter "cache.store_failed" - failed_before);
  Alcotest.(check int) "nothing stored" 0
    (service_counter "cache.stores" - stores_before);
  Alcotest.(check int) "no entry on disk" 0 (Cache.entry_count cache)

let test_serve_log_sink_on_full_disk () =
  (* A JSONL log sink on a full device fails every write: the failures
     are counted, the sink is closed, and the batch is served exactly as
     without it. *)
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let module Log = Epre_telemetry.Log in
  let _, reference = serve_to_lines ~jobs:1 side_channel_input in
  let errors_before = service_counter "log.sink_errors" in
  Log.open_file "/dev/full";
  let res, lines =
    Fun.protect ~finally:Log.close_file (fun () ->
        serve_to_lines ~jobs:2 side_channel_input)
  in
  let s = summary res in
  Alcotest.(check (pair int int)) "every job ok" (4, 4)
    (s.Service.jobs, s.Service.succeeded);
  Alcotest.(check (list string)) "output unchanged by the failing sink"
    (List.map norm_line reference) (List.map norm_line lines);
  Alcotest.(check bool) "sink errors counted" true
    (service_counter "log.sink_errors" > errors_before)

let test_open_floor_breaker_serves_the_level () =
  (* dce runs at every level, so no level avoids its open breaker: the
     job is served at its requested level, byte-identical to a direct
     run, and not reported degraded. *)
  Alcotest.(check bool) "dce is in every level" true
    (List.for_all
       (fun level -> List.mem "dce" (Pipeline.level_stages ~level))
       Pipeline.all_levels);
  let policy = { Service.Policy.default with degrade = true } in
  List.iter
    (fun level ->
      let breaker = Breaker.create ~threshold:1 ~probe_after:100 () in
      Breaker.failure breaker ~pass:"dce";
      let job = { (iloc_job "floor") with Service.level } in
      let r = Service.run_job ~policy ~breaker job in
      let direct = Service.run_job job in
      let name what = Pipeline.level_to_string level ^ ": " ^ what in
      Alcotest.(check string) (name "outcome") "ok"
        (Service.job_outcome_to_string r.Service.outcome);
      Alcotest.(check bool) (name "served at the requested level") true
        (r.Service.job_level = level && r.Service.requested = None
        && r.Service.attempts = 1);
      Alcotest.(check (option string)) (name "output of a direct run")
        direct.Service.iloc r.Service.iloc)
    Pipeline.all_levels

(* A random serve input: well-formed jobs over a few programs at every
   level with [emit] on and off (so programs repeat and hit the cache),
   jobs with and without an id, a job naming an unknown workload,
   malformed lines and blank lines. *)
let random_serve_input seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let job i =
    let fields =
      [ ("workload", Tjson.Str (pick [ "saxpy"; "dot"; "horner"; "euclid"; "nope" ]));
        ("level", Tjson.Str (Pipeline.level_to_string (pick Pipeline.all_levels)));
        ("emit", Tjson.Bool (Random.State.bool rng)) ]
    in
    let fields =
      if Random.State.int rng 4 = 0 then fields
      else ("id", Tjson.Str (Printf.sprintf "r%d" i)) :: fields
    in
    Tjson.to_string (Tjson.Obj fields)
  in
  String.concat "\n"
    (List.init 24 (fun i ->
         match Random.State.int rng 10 with
         | 0 -> ""
         | 1 -> pick [ "garbage"; "{}"; {|{"workload":"saxpy","level":"warp"}|} ]
         | _ -> job i))
  ^ "\n"

let test_serve_batch_size_invariance () =
  (* Batching is a dispatch detail: at one worker, every batch size
     yields the same result lines, the same done/failed journal records
     (run ids aside) and the same summary. *)
  let run input batch =
    let dir = Helpers.fresh_dir () in
    let jpath = Filename.concat dir "journal.jsonl" in
    let journal = Journal.open_ ~path:jpath () in
    let res, lines =
      serve_to_lines ~cache:(Cache.create ~dir ()) ?batch ~journal ~jobs:1 input
    in
    Journal.close journal;
    let s = summary res in
    let records =
      List.filter_map
        (fun e ->
          if e.Journal.kind = "done" || e.Journal.kind = "failed" then
            Some
              (Tjson.to_string
                 (Tjson.Obj
                    ([ ("kind", Tjson.Str e.Journal.kind);
                       ("seq", Tjson.Int e.Journal.seq);
                       ("id", Tjson.Str e.Journal.id);
                       ("key", Tjson.Str e.Journal.key) ]
                    @ List.remove_assoc "run" e.Journal.fields)))
          else None)
        (Journal.load ~path:jpath)
    in
    let totals =
      Printf.sprintf "%d jobs, %d ok, %d failed, %d timeouts, %d degraded, \
                      %d replayed, %d hits, %d misses"
        s.Service.jobs s.Service.succeeded s.Service.failed s.Service.timeouts
        s.Service.degraded s.Service.replayed
        s.Service.total.Service.hits s.Service.total.Service.misses
    in
    (List.map norm_line lines, records, totals)
  in
  List.iter
    (fun seed ->
      let input = random_serve_input seed in
      let ((lines, records, _) as reference) = run input (Some 1) in
      Alcotest.(check bool) "every job reported" true
        (List.length lines = List.length records && lines <> []);
      List.iter
        (fun batch ->
          let lines', records', totals' = run input batch in
          let _, _, totals = reference in
          let name what =
            Printf.sprintf "seed %d, batch %s: %s" seed
              (match batch with Some b -> string_of_int b | None -> "default")
              what
          in
          Alcotest.(check (list string)) (name "result lines") lines lines';
          Alcotest.(check (list string)) (name "journal records") records records';
          Alcotest.(check string) (name "summary") totals totals')
        [ Some 2; Some 3; Some 5; None ])
    [ 1; 2; 3 ]

let test_cache_sweep_spares_locked () =
  (* A stale-looking temp file whose writer is alive (holds its advisory
     lock) survives the sweep; the truly orphaned one is reclaimed. *)
  let dir = Helpers.fresh_dir () in
  let cache = Cache.create ~dir () in
  let shard = Filename.concat dir "ab" in
  List.iter
    (fun d ->
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ dir; shard ];
  let held = Filename.concat shard "entry-held.tmp" in
  let stale = Filename.concat shard "entry-stale.tmp" in
  List.iter
    (fun p ->
      let oc = open_out_bin p in
      output_string oc "half-written entry";
      close_out oc)
    [ held; stale ];
  let old = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes held old old;
  Unix.utimes stale old old;
  let ready = Filename.concat dir "ready" in
  (* The live writer must be a real separate process (fork is unavailable
     once domains exist): a helper that locks the file, signals
     readiness, and lingers until killed. *)
  let helper =
    Filename.concat (Filename.dirname Sys.executable_name) "lockhold.exe"
  in
  let pid =
    Unix.create_process helper [| helper; held; ready |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let rec wait_ready n =
        if not (Sys.file_exists ready) then
          if n > 1000 then Alcotest.fail "helper never took the lock"
          else begin
            Unix.sleepf 0.005;
            wait_ready (n + 1)
          end
      in
      wait_ready 0;
      let swept = Cache.sweep_temp cache in
      Alcotest.(check int) "only the orphan swept" 1 swept;
      Alcotest.(check bool) "held file spared" true (Sys.file_exists held);
      Alcotest.(check bool) "orphan gone" false (Sys.file_exists stale))

(* A process that opens a cache per batch closes each one: 20 open,
   store, close cycles leave the process's descriptor count where it
   was. Without [Cache.close], each cycle leaks the [.lock] fd its store
   opened. *)
let test_cache_close_releases_lock_fd () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let dir = Helpers.fresh_dir () in
  let stats = some_stats () in
  let fingerprint = Pipeline.fingerprint ~level:Pipeline.Baseline in
  let before = open_fds () in
  for i = 1 to 20 do
    let cache = Cache.create ~dir () in
    let iloc = Printf.sprintf "routine r%d() entry B0 regs 0 {\nB0:\n  return\n}\n" i in
    Cache.store cache ~key:(Cache.key ~iloc ~fingerprint) ~fingerprint ~iloc ~stats;
    Cache.close cache
  done;
  Alcotest.(check int) "open descriptors" before (open_fds ())

let suite =
  [
    Alcotest.test_case "pool preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "pool re-raises first failure" `Quick test_pool_exception;
    Alcotest.test_case "pool nested map" `Quick test_pool_nested_map;
    Alcotest.test_case "pool concurrent submitters" `Quick
      test_pool_concurrent_submitters;
    Alcotest.test_case "pool runs at most jobs tasks at once" `Quick
      test_pool_in_flight_bound;
    Alcotest.test_case "outcome protocol contains failures" `Quick
      test_pool_outcome_mix;
    Alcotest.test_case "second run all cache hits" `Quick
      test_cache_second_run_all_hits;
    Alcotest.test_case "cache survives reopen" `Quick test_cache_survives_reopen;
    Alcotest.test_case "fingerprint invalidation" `Quick
      test_cache_fingerprint_invalidation;
    Alcotest.test_case "poisoned entry recompiles" `Quick
      test_cache_poisoned_entry_recompiles;
    Alcotest.test_case "a hit is the stored text" `Quick
      test_cache_hit_is_stored_text;
    Alcotest.test_case "a v1 entry is a poisoned miss, rewritten" `Quick
      test_cache_v1_entry_rewritten;
    Alcotest.test_case "eviction bounds entries" `Quick test_cache_eviction;
    Alcotest.test_case "eviction bounds bytes" `Quick test_cache_byte_budget;
    Alcotest.test_case "close releases the lock descriptor" `Quick
      test_cache_close_releases_lock_fd;
    Alcotest.test_case "orphaned temp sweep" `Quick test_cache_sweep_temp;
    Alcotest.test_case "concurrent stores, shared dir" `Quick
      test_cache_concurrent_stores;
    Alcotest.test_case "find survives an entry torn mid-read" `Quick
      test_cache_find_survives_torn_read;
    Alcotest.test_case "zipf jobs: parallel shared cache == serial" `Quick
      test_zipf_jobs_shared_cache;
    Alcotest.test_case "deadline bounds a slow job" `Quick
      test_run_job_timeout;
    Alcotest.test_case "run_job branch table" `Quick test_run_job_branch_table;
    Alcotest.test_case "job parsing" `Quick test_job_parsing;
    Alcotest.test_case "serve streams in order" `Quick test_serve_stream;
    Alcotest.test_case "malformed lines carry line numbers" `Quick
      test_serve_malformed_line_numbers;
    Alcotest.test_case "ILOC with a duplicate routine fails its job" `Quick
      test_serve_duplicate_routine_iloc;
    Alcotest.test_case "journal round-trips, tolerates torn tail" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "stale journal cannot satisfy a later resume" `Quick
      test_journal_run_isolation;
    Alcotest.test_case "unopenable journal is a Sys_error" `Quick
      test_journal_open_failure;
    Alcotest.test_case "kill-and-resume completes byte-identically" `Quick
      test_serve_kill_resume_byte_identical;
    Alcotest.test_case "degraded == direct run at lower level, oracle-equal"
      `Slow test_degraded_byte_identical_and_oracle;
    Alcotest.test_case "degraded job from warm entries is exec-validated" `Quick
      test_degraded_from_warm_entries_validated;
    Alcotest.test_case "breaker opens and short-circuits the ladder" `Quick
      test_breaker_opens_and_short_circuits;
    Alcotest.test_case "breaker half-open probe protocol" `Quick
      test_breaker_half_open_probe;
    Alcotest.test_case "breaker counts a repeated pass once" `Quick
      test_breaker_counts_repeated_pass_once;
    Alcotest.test_case "serve under each chaos class: serial == parallel"
      `Quick test_serve_chaos_classes;
    Alcotest.test_case "a worker crash keeps the job's id and level" `Quick
      test_serve_worker_crash_keeps_job_id;
    Alcotest.test_case "a blocked cache lock fails no job" `Quick
      test_cache_store_failure_is_a_miss;
    Alcotest.test_case "a log sink on a full disk fails no job" `Quick
      test_serve_log_sink_on_full_disk;
    Alcotest.test_case "an open dce breaker serves the level" `Quick
      test_open_floor_breaker_serves_the_level;
    Alcotest.test_case "serve output is invariant under batch size" `Quick
      test_serve_batch_size_invariance;
    Alcotest.test_case "sweep spares a live writer's temp file" `Quick
      test_cache_sweep_spares_locked;
    Alcotest.test_case "a file job reads ILOC" `Quick test_file_job_reads_iloc;
    Alcotest.test_case "an inline ILOC job's errors match a file job's" `Quick
      test_inline_iloc_errors_match_file_job;
  ]
