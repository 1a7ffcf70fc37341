(** Ground-truth dependency recording.

    Because the DBMS is simulated, we know — unlike the paper, which can
    only sample — the {e exact} set of transaction dependencies a run
    produced.  The harness uses this to compute the overlap ratio β of
    Figs. 4 and 13 and to score how many uncertain dependencies Leopard's
    mechanism-mirrored verification managed to deduce.

    The engine reports three kinds of event:
    - a committed write installing a cell version,
    - a committed write installing a row version (the row sequence also
      captures same-row/different-column conflicts — real dependencies
      that traces cannot reveal, the TPC-C effect of Fig. 13b),
    - a read observing a particular writer's version.

    {!deps} then derives Adya's direct dependencies: ww between
    consecutive installers, wr from read provenance, rw from a read to the
    installer of the next version. *)

type dep_kind = Ww | Wr | Rw

type dep = {
  kind : dep_kind;
  from_txn : int;
  to_txn : int;
  from_op : int;  (** op id of the dependency's source operation *)
  to_op : int;  (** op id of the dependency's target operation *)
  row_only : bool;
      (** true when the conflict exists only at row granularity (disjoint
          column sets) — never deducible from traces *)
}

type t

val create : unit -> t

val record_cell_install :
  t -> Leopard_trace.Cell.t -> txn:int -> op:int -> unit
(** Must be called in commit order per cell. *)

val record_row_install : t -> int * int -> txn:int -> op:int -> unit
(** Must be called in commit order per row. *)

val record_read :
  t ->
  Leopard_trace.Cell.t ->
  reader:int ->
  op:int ->
  seen_writer:int ->
  seen_op:int ->
  unit

val deps : t -> committed:(int -> bool) -> dep list
(** All direct dependencies between committed transactions, deduplicated
    by [(kind, from, to)].  Dependencies involving the initial load
    (writer [-1]) are excluded. *)
