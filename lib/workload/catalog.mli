(** The named-workload table — one catalogue shared by the CLI and the
    campaign orchestrator, so a cell class naming ["smallbank"] and the
    reproducing command line's [-w smallbank] are guaranteed to build
    the same spec with the same parameters.

    Besides the paper's workloads it names two hot-spot
    read-modify-write workloads for the fault planes: [hot-rmw] (four
    hot cells, for replication's stale-read and split-brain faults) and
    [cross-rmw] (rows 0 and 2 of table 0, which a 2-shard ring places
    on shards 0 and 1, half the transactions touching both — for the
    shard and stacked planes).

    [find] returns a {e fresh} spec instance per call: specs carry
    mutable generator state (value counters), so concurrent runs —
    campaign cells on separate domains — must never share one. *)

val names : string list
(** Every workload name the CLI accepts, in its documented order. *)

val find : string -> Spec.t option
(** [find name] builds a fresh spec, or [None] for an unknown name. *)
