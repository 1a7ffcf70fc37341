(** The marks that govern a trace stream: everything the checker learns
    {e besides} the traces.  A completed run and a recorded trace file
    both reduce to a [t], and {!apply} is the only code that hands one
    to a checker, so a new channel cannot reach one driver and miss
    another.  {!Session} documents the order. *)

type t = {
  epochs : Run.epoch_mark list;  (** server restarts, oldest first *)
  ambiguous : int list;  (** wire give-ups and replication-gate timeouts *)
  coord_ambiguous : int list;  (** commits orphaned by a coordinator crash *)
  leaders : Leopard_trace.Codec.leader_mark list;  (** failovers, oldest first *)
  indeterminate : int list;  (** chaos: in flight when their client crashed *)
  crashed_clients : int;  (** chaos *)
  lost_traces : int;
      (** chaos drops, skipped trace-file lines, stranded traces *)
}

val empty : t

val of_outcome : Run.outcome -> t

val of_codec : Leopard_trace.Codec.contents -> skipped:int -> t
(** [skipped] undecodable lines count as lost traces.  The format has
    no chaos lines, so those channels are empty. *)

val record : path:string -> Run.outcome -> unit
(** Save a run as [leopard --record] does: every trace, globally sorted,
    with its markers.  [of_codec] of the file equals [of_outcome] of the
    run on every channel but the chaos ones. *)

val apply : Leopard.Checker.t -> t -> unit
(** Feed the marks to a checker in the canonical order. *)

val since : t -> applied:t -> t
(** What [t] adds to [applied], for marks that only grow. *)
