(** Unambiguous textual ILOC: a parse/print pair that round-trips exactly
    (named opcodes, hexadecimal float literals, explicit entry/register
    headers, CFG holes preserved). Used by the CLI's [--format text], by
    golden tests, by the compile service (inline-ILOC jobs, cache keys),
    and to state routines concisely in tests.

    The printer writes ints as digits straight into one buffer; floats
    print as [Value.to_string] ([%h]).

    The parser is a scanner that walks the text with an index; a line's
    tokens are (start, length) spans in one reused array, compared in
    place, so accepting a program copies out only routine names, callee
    names and value literals. The language it accepts, exactly:
    - lines split at ['\n']; a line's tokens split at space and tab and
      at [, ( ) { } : =], each of which is a token of its own; [#] runs
      to the end of the line; every other byte, ['\r'] included, belongs
      to a token, and a line without tokens is blank;
    - a register is [r] and a label [B] followed by a non-negative int;
      that int, a routine's [regs] count and an [alloca] size are read in
      place when they are plain decimals and otherwise go through
      [int_of_string_opt] on their text, so [r0x1f], [r1_0] and [r+5]
      are registers 31, 10 and 5; a value literal is an int if
      [int_of_string_opt] reads it, else a float if [float_of_string_opt]
      does;
    - a register number is below {!max_regs}, a label number at most
      {!max_label}, and a [regs] count in \[0, {!max_regs}\];
    - register lists (parameters, call arguments) and phi arguments skip
      commas, so commas there are optional and may repeat; tokens after
      the [)] of a call are ignored.

    Every [Parse_error] carries the 1-based line and the message the
    tokenizer-based parser it replaced gave (its tokens joined by single
    spaces); that parser is kept as a test oracle. *)

exception Parse_error of { line : int; message : string }

(** The largest label number the parser accepts: 65,535. A routine gets a
    CFG slot for every label number up to its largest, so the bound caps
    what a short text can make the parser allocate. *)
val max_label : int

(** The largest [regs] count the parser accepts: 2{^ 20}. Passes size
    arrays by it. A 94-byte routine at both bounds (a block [B65535],
    [regs 1048576]) peaked at 100 MiB and ran 0.2 s under
    [eprec compile -O partial] on a 2-core x86-64 host; unbounded, a
    68-byte routine with a block [B3000000] took 262 MiB, and a 70-byte
    one with [regs 30000000] 1.1 GiB and 2.85 s. *)
val max_regs : int

val print_program : Program.t -> string

val routine_to_string : Routine.t -> string

(** Parses and (by default) validates. [~validate:false] skips
    [Routine.validate], letting tests state deliberately ill-formed
    routines for the verifier's negative corpus.
    @raise Parse_error on malformed input (1-based line). *)
val parse_program : ?validate:bool -> string -> Program.t
