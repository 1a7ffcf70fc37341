(* The replication/failover fault vocabulary — the fifth fault plane.

   Like the engine's [Minidb.Fault] and the WAL's durability faults,
   these are *planted bugs*, not environmental noise: partitions, hop
   latency and link faults (the environment) can delay or strand
   replication without any of these, and an honest failover then reports
   its lost suffix so the checker degrades to Inconclusive.  A fault in
   this list makes the cluster *lie or misbehave* — promote the wrong
   node, claim a lossy failover was clean, serve reads from a stale
   horizon, or let a deposed primary keep serving — each planting a real,
   provable isolation violation for Leopard to find. *)

type t =
  | Promote_lagging
      (* failover targets the *least* caught-up follower and claims the
         promotion was clean: every commit past its horizon vanishes
         silently *)
  | Lose_acked_window
      (* a lossy failover (async-acked tail not yet replicated) is
         claimed clean: acked commits vanish without a lost-suffix
         report *)
  | Stale_follower_read
      (* a routed follower read is served at the follower's applied
         horizon even when that is behind the transaction's snapshot *)
  | Split_brain
      (* the deposed primary keeps serving (and committing) for a window
         after promotion: two brains commit concurrently *)

let all = [ Promote_lagging; Lose_acked_window; Stale_follower_read; Split_brain ]

let to_string = function
  | Promote_lagging -> "promote-lagging"
  | Lose_acked_window -> "lose-acked-window"
  | Stale_follower_read -> "stale-follower-read"
  | Split_brain -> "split-brain"

let of_string = function
  | "promote-lagging" -> Some Promote_lagging
  | "lose-acked-window" -> Some Lose_acked_window
  | "stale-follower-read" -> Some Stale_follower_read
  | "split-brain" -> Some Split_brain
  | _ -> None

let has_fault faults f = List.mem f faults
