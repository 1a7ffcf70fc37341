(** The record grammar of checker checkpoints.

    A snapshot ([Leopard.Checker.encode], and each mechanism mirror's
    [dump]) is a list of records, one per line: a tag, then
    tab-separated fields.  This module is the only place that knows how
    a record is spelled:

    - an integer is one decimal field, a name one verbatim field, and a
      free text one [String.escaped] field;
    - an interval is two fields, [bef] then [aft]; an absent one is
      ["-"] twice;
    - a cell is three fields: table, row, column;
    - an int list is one field of [,]-joined integers;
    - a list of tuples is one field of [;]-joined entries, each the
      [,]-joined fields of its values (an interval or a cell inside an
      entry keeps its two or three parts);
    - an optional tuple is one field: ["-"], or its [,]-joined values.

    Writers build a record from values; a {!Cursor} reads one back and
    raises [Failure "malformed TAG"] when a field is missing, extra, not
    an integer, not a valid interval or not one of its words. *)

type value
(** The fields of one value. *)

val line : value list -> string
(** An untagged line: what a mirror's [dump] writes. *)

val record : string -> value list -> string
(** [record tag values] is one record line. *)

val int : int -> value
val bool : bool -> value

val name : string -> value
(** A string written as is: a word, a trace line.  A tab in it starts a
    new field, which is how a record carries a {!line} after its tag. *)

val text : string -> value
(** Free text, escaped so that it stays one field. *)

val iv : Leopard_util.Interval.t -> value
val opt_iv : Leopard_util.Interval.t option -> value
val cell : Cell.t -> value
val ints : int list -> value
val entries : ('a -> value list) -> 'a list -> value
val opt : ('a -> value list) -> 'a option -> value

module Cursor : sig
  type t

  val read : ?tag:string -> string -> (t -> 'a) -> 'a
  (** [read line f] runs [f] on a cursor over [line]'s fields, then
      fails unless [f] consumed them all.  The first field of [line] is
      its tag, which the cursor has already passed; [~tag] reads an
      untagged line (a mirror's [dump] output) and names it in errors. *)

  val tag : t -> string

  val fail : t -> 'a
  (** Raise [Failure "malformed TAG"]. *)

  val int : t -> int
  val bool : t -> bool
  val name : t -> string
  val text : t -> string

  val choice : t -> ('a -> string) -> 'a list -> 'a
  (** The one of [all] that [to_string] spells as the next field; any
      other word is malformed. *)

  val iv : t -> Leopard_util.Interval.t
  val opt_iv : t -> Leopard_util.Interval.t option
  val cell : t -> Cell.t
  val ints : t -> int list

  val entries : t -> (t -> 'a) -> 'a list
  (** Each entry is read by [f] with a cursor over its [,]-joined
      fields, which [f] must consume. *)

  val opt : t -> (t -> 'a) -> 'a option
end
