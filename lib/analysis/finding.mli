(** One reported finding, with both human and machine renderings. *)

type t = {
  rule : Rules.t;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  msg : string;
}

val pp : t Fmt.t
(** [file:line:col: [CODE slug] message] — editors recognize it. *)

val to_json : t -> string
(** One JSON object (single line, keys: file, line, col, rule, slug,
    group, msg). *)

