(* Benchmark entry point.

     perfbench.exe --workload kernels|kernels-exec|serve-zipf
                   --seed N --seconds S --trace 0|1

   Prints one line per note to stderr and, as the last line of stdout,
   one JSON object: {"correct", "attempted", "failed", "metrics"}. With
   [--trace 0] the metrics are the end-to-end ones, measured untraced;
   with [--trace 1] they are the per-layer ones of a traced run, which
   reports every layer on every workload (0 where the workload does not
   reach the layer). See README.md for the workloads and what each
   layer metric should move. *)

open Common

let per_layer =
  List.concat_map
    (fun s ->
      [ (Printf.sprintf "pass.%s.ms" s, "ms"); (Printf.sprintf "pass.%s.alloc_mw" s, "Mw");
        (Printf.sprintf "pass.%s.instrs_out" s, "count") ])
    stage_names
  @ [ ("pre.rounds", "count"); ("pre.useful_round_frac", "ratio");
      ("frontend.ms", "ms"); ("frontend.alloc_mw", "Mw"); ("ir.print.ms", "ms");
      ("ir.parse.ms", "ms"); ("harness.ms", "ms"); ("harness.rollbacks", "count");
      ("interp.ms", "ms"); ("interp.ops_per_us", "ops/us");
      ("service.cache.read_ms", "ms"); ("service.cache.write_ms", "ms");
      ("service.cache.lock_wait_ms", "ms"); ("service.cache.hit_rate", "ratio");
      ("service.cache.stores", "count"); ("service.retries", "count");
      ("service.degraded", "count"); ("service.queue_depth", "count");
      ("pool.queue_wait_ms", "ms"); ("pool.busy_frac", "ratio"); ("pool.idle_ms", "ms");
      ("pool.helper_busy_frac", "ratio"); ("trace.job_ms", "ms");
      ("trace.attributed_frac", "ratio"); ("trace.overhead_frac", "ratio");
      ("host.probe_ms", "ms") ]

(* Every per-layer metric in declaration order, 0 where not measured. *)
let complete metrics =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) metrics with
      | Some x -> x
      | None -> m name unit_ 0.0)
    per_layer

let json_of (r : result) =
  let metric x =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "kernels | kernels-exec | serve-zipf");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let seed = !seed and seconds = !seconds in
  let r =
    match (!workload, !trace) with
    | "kernels", 0 -> Kernels_bench.measure Kernels_bench.Bare ~seed ~seconds
    | "kernels", 1 -> Kernels_bench.measure_traced Kernels_bench.Bare ~seed ~seconds
    | "kernels-exec", 0 -> Kernels_bench.measure Kernels_bench.Exec ~seed ~seconds
    | "kernels-exec", 1 -> Kernels_bench.measure_traced Kernels_bench.Exec ~seed ~seconds
    | "serve-zipf", 0 -> Serve_bench.measure ~seed ~seconds
    | "serve-zipf", 1 -> Serve_bench.measure_traced ~seed ~seconds
    | _ ->
      prerr_endline usage;
      exit 2
  in
  Printf.eprintf "host: nproc=%d ocaml=%s pool_jobs=%d\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Epre_service.Pool.default_jobs ());
  List.iter prerr_endline r.notes;
  let r = if !trace = 1 then { r with metrics = complete r.metrics } else r in
  print_endline (json_of r)
