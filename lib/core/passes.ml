(** The pass registry: every optimizer pass under its command-line name.

    The paper's optimizer "is structured as a sequence of passes, where
    each pass is a Unix filter that consumes and produces ILOC ... its
    flexibility makes it ideal for experimentation". This registry is our
    equivalent: `eprec compile --passes reassociate,gvn,pre,...` composes
    arbitrary sequences, and the experiment harness uses the same names. *)

open Epre_ir

type pass = {
  name : string;
  description : string;
  run : Routine.t -> unit;
}

let all =
  [
    { name = "naming";
      description = "re-establish the Section 2.2 expression-naming discipline";
      run = (fun r -> ignore (Epre_opt.Naming.run r)) };
    { name = "pre";
      description = "partial redundancy elimination (edge placement)";
      run = (fun r -> ignore (Epre_pre.Pre.run r)) };
    { name = "pre-classic";
      description = "Morel-Renvoise PRE (block-end placement; ablation)";
      run = (fun r -> ignore (Epre_pre.Pre.run_classic r)) };
    { name = "reassociate";
      description = "global reassociation, no distribution (Section 3.1)";
      run =
        (fun r ->
          ignore
            (Epre_reassoc.Reassociate.run
               ~config:(Pipeline.reassoc_config ~distribute:false) r)) };
    { name = "distribute";
      description = "global reassociation with distribution of * over +";
      run =
        (fun r ->
          ignore
            (Epre_reassoc.Reassociate.run
               ~config:(Pipeline.reassoc_config ~distribute:true) r)) };
    { name = "gvn";
      description = "partition-based global value numbering (Section 3.2)";
      run = (fun r -> ignore (Epre_gvn.Gvn.run r)) };
    { name = "constprop";
      description = "sparse conditional constant propagation";
      run = (fun r -> ignore (Epre_opt.Constprop.run r)) };
    { name = "peephole";
      description = "global peephole optimization";
      run = (fun r -> ignore (Epre_opt.Peephole.run r)) };
    { name = "peephole-shift";
      description = "peephole including mul-to-shift rewriting (Section 5.2)";
      run =
        (fun r ->
          ignore
            (Epre_opt.Peephole.run ~config:{ Epre_opt.Peephole.mul_to_shift = true } r)) };
    { name = "dce";
      description = "dead code elimination";
      run = (fun r -> ignore (Epre_opt.Dce.run r)) };
    { name = "adce";
      description = "aggressive DCE via control dependence (Cytron 7.1; extension)";
      run = (fun r -> ignore (Epre_opt.Adce.run r)) };
    { name = "coalesce";
      description = "Chaitin-style copy coalescing";
      run = (fun r -> ignore (Epre_opt.Coalesce.run r)) };
    { name = "clean";
      description = "CFG cleanup (empty-block removal)";
      run = (fun r -> ignore (Epre_opt.Clean.run r)) };
    { name = "cse-dom";
      description = "dominator-based CSE (Section 5.3 method 1)";
      run = (fun r -> ignore (Epre_opt.Cse_dom.run r)) };
    { name = "cse-avail";
      description = "available-expression CSE (Section 5.3 method 2)";
      run = (fun r -> ignore (Epre_opt.Cse_avail.run r)) };
    { name = "dvnt";
      description = "dominator-tree hash value numbering (extension)";
      run = (fun r -> ignore (Epre_opt.Dvnt.run r)) };
    { name = "strength";
      description = "operator strength reduction (extension)";
      run = (fun r -> ignore (Epre_opt.Strength.run r)) };
    { name = "ssa-roundtrip";
      description = "build and destroy pruned SSA (diagnostic)";
      run = (fun r -> ignore (Epre_ssa.Ssa.build r); ignore (Epre_ssa.Ssa.destroy r)) };
  ]
  (* Fault-injection passes: corrupt the IR on purpose, to exercise the
     supervision harness. Seeded via [Epre_harness.Chaos.default_seed]. *)
  @ List.map
      (fun k ->
        { name = Epre_harness.Chaos.name k;
          description = Epre_harness.Chaos.description k;
          run = (fun r -> Epre_harness.Chaos.run k r) })
      Epre_harness.Chaos.all_kinds

let is_chaos p = String.length p.name >= 6 && String.sub p.name 0 6 = "chaos:"

(** A registry pass as the harness sees it. *)
let to_named p = { Epre_harness.Harness.pass_name = p.name; run = p.run }

let find name = List.find_opt (fun p -> p.name = name) all

(** Resolve a comma-separated sequence; [Error name] on the first unknown
    pass. *)
let parse_sequence spec =
  let names =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> begin
      match find n with
      | Some p -> go (p :: acc) rest
      | None -> Error n
    end
  in
  go [] names
