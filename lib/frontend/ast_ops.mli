(** AST utilities: a source printer that re-parses
    ([Frontend.parse_string]), which the fuzz generator renders its
    programs with. *)

open Ast

(** Render a program as mini-language source. The output parses back with
    [Frontend.parse_string]; for programs the fuzz generator produces
    (no negative literals, statement-position calls only) the reparse is
    structurally identical, so a printed program replays exactly. *)
val print_program : program -> string
