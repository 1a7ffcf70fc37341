(** JSON output helpers shared by every JSON file the tools write. *)

val escape : string -> string
(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped, every other byte kept as is. *)
