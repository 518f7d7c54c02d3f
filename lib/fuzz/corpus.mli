(** The persistent repro corpus: one directory per failure under the
    corpus root, holding the reduced reproducer as replayable ILOC text
    plus a metadata file.

    {v
    fuzz/corpus/<id>/
      repro.iloc    reduced program, [Ir_text] (replays the failure on its own)
      original.mf   the unreduced generated program
      meta.json     provenance + the failure as a harness record
    v}

    [<id>] is [seed<seed>-<level>-<class>] — deterministic, so re-running
    the same campaign overwrites rather than accumulates duplicates.

    [meta.json] is a [Tjson] object: [schema] (currently 2), [seed],
    [level], [class], [chaos] (the [--chaos] spelling, absent when none),
    [reduction] ({!Reduce.stats}), and [record] — the failure rendered by
    [Epre_harness.Report.record_to_tjson], the same schema supervised-run
    reports use. *)

type entry = {
  id : string;
  seed : int;
  level : Epre.Pipeline.level;
  cls : Oracle.failure_class;
  chaos : string option;  (** the campaign's [--chaos] spelling *)
  reduction : Reduce.stats option;
  record : Epre_harness.Harness.record;
  repro_source : string;  (** the reproducer, printed by [Ir_text] *)
}

val entry_id :
  seed:int -> level:Epre.Pipeline.level -> cls:Oracle.failure_class -> string

(** [save ~dir entry ~original] writes the entry's directory under [dir]
    (both created as needed) and returns the entry directory path. *)
val save : dir:string -> original:string -> entry -> string

(** [load dir] reads one entry directory back ([Error] explains what is
    missing or malformed). The [record]'s meta carries whatever
    [meta.json] stored. *)
val load : string -> (entry, string) result

(** Entry directories under a corpus root, sorted by name; [[]] when the
    root does not exist. *)
val list : dir:string -> string list
