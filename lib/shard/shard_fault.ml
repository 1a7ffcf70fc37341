(* The sharding/2PC fault vocabulary — the sixth fault plane.

   Like the engine's [Minidb.Fault], the WAL's durability faults and the
   cluster's [Repl_fault], these are *planted bugs*, not environmental
   noise: wire faults and coordinator crashes (the environment) can
   strand prepares and delay decisions without any of these, and an
   honest coordinator then presumes abort, re-delivers logged decisions,
   and reports what it cannot know — the checker degrades to
   Inconclusive.  A fault in this list makes the commit protocol *lie*:
   fracture a decided commit across shards, apply a vetoed transaction,
   mix per-shard snapshots inside one read, or keep serving from a
   horizon frozen under an orphaned prepared lock — each planting a
   real, provable isolation violation for Leopard to find. *)

type t =
  | Fractured_commit
      (* a coordinator crash mid-decision-fanout drops the undelivered
         slice of a decided commit at one shard and compensates the
         sequence, so that shard applies every later commit as if the
         fractured one never happened: one shard applied, one not *)
  | Commit_after_abort
      (* a participant holding prepared writes applies them when the
         ABORT decision arrives, making an aborted transaction's values
         readable on its shard *)
  | Snapshot_skew
      (* a cross-shard read is served per shard at [min(snapshot,
         shard horizon)] instead of one global snapshot: cells from a
         lagging shard come from an older timeline than the rest *)
  | Stale_prepared_read
      (* prepared locks orphaned by a coordinator crash are never
         presumed-aborted; the shard freezes its serving horizon at the
         orphaning instant and keeps serving later snapshots from it *)

let all =
  [ Fractured_commit; Commit_after_abort; Snapshot_skew; Stale_prepared_read ]

let to_string = function
  | Fractured_commit -> "fractured-commit"
  | Commit_after_abort -> "commit-after-abort"
  | Snapshot_skew -> "snapshot-skew"
  | Stale_prepared_read -> "stale-prepared-read"

let of_string = function
  | "fractured-commit" -> Some Fractured_commit
  | "commit-after-abort" -> Some Commit_after_abort
  | "snapshot-skew" -> Some Snapshot_skew
  | "stale-prepared-read" -> Some Stale_prepared_read
  | _ -> None

let has_fault faults f = List.mem f faults
