(** Bug descriptors — what Leopard reports when a mechanism is violated.

    Each descriptor names the violated mechanism, the transactions and the
    data involved, and a human-readable explanation, mirroring the paper's
    "bug descriptor" output of Algorithm 2. *)

module Cell = Leopard_trace.Cell

type mechanism = Cr | Me | Fuw | Sc

val mechanism_to_string : mechanism -> string

val compare_mechanism : mechanism -> mechanism -> int
(** Declaration order (Cr < Me < Fuw < Sc), for typed sorts. *)

type t = {
  mechanism : mechanism;
  anomaly : Anomaly.t option;  (** Adya-style classification when known *)
  txns : int list;  (** transactions involved *)
  cell : Cell.t option;  (** cell, when the violation is data-specific *)
  row : (int * int) option;  (** row, for lock-level violations *)
  detail : string;
}

val make :
  mechanism:mechanism ->
  txns:int list ->
  ?anomaly:Anomaly.t ->
  ?cell:Cell.t ->
  ?row:int * int ->
  string ->
  t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
