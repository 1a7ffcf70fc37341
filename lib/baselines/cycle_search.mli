(** The naive cycle-searching verifier of Fig. 11.

    The strawman the paper contrasts with mechanism-mirrored
    verification: build the full dependency graph and search it for
    cycles.  To isolate the cost of the {e strategy} (global cycle search
    vs certifier mirroring), it consumes exactly the dependencies Leopard
    deduces (via {!Leopard.Checker.set_dep_hook}) but re-runs a
    whole-graph depth-first cycle search every [search_every] committed
    transactions and never prunes — the per-search cost grows with the
    graph, so total time grows superlinearly with the transaction count,
    as Fig. 11(a) reports. *)

module Trace = Leopard_trace.Trace

type t

val create : ?search_every:int -> Leopard.Il_profile.t -> t
(** [search_every] defaults to 1 (search on every commit, the paper's
    per-operation verification discipline). *)

val feed : t -> Trace.t -> unit
val finalize : t -> unit

val cycles_found : t -> int
val nodes : t -> int
val edges : t -> int
val live_size : t -> int
(** Graph size (never pruned) — the memory metric. *)
