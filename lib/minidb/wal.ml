module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Rng = Leopard_util.Rng

type write = {
  cell : Cell.t;
  value : Trace.value;
  write_op : int;
  commit_ts : int;
}

type record = {
  txn : int;
  client : int;
  start_ts : int;
  commit_ts : int;
  writes : write list;
}

type fault = Torn_tail | Lost_fsync | Reordered_flush | Dup_replay

let fault_to_string = function
  | Torn_tail -> "torn-tail"
  | Lost_fsync -> "lost-fsync"
  | Reordered_flush -> "reordered-flush"
  | Dup_replay -> "dup-replay"

let fault_of_string = function
  | "torn-tail" -> Some Torn_tail
  | "lost-fsync" -> Some Lost_fsync
  | "reordered-flush" -> Some Reordered_flush
  | "dup-replay" -> Some Dup_replay
  | _ -> None

(* A crash cannot retroactively overlap two committed trace intervals, so
   durability damage never fabricates the certainly-concurrent pairs that
   ME/FUW violations require; it surfaces as wrong version chains under
   post-crash reads. *)
let expected_mechanism = function
  | Torn_tail | Lost_fsync | Reordered_flush | Dup_replay -> "CR"

type fault_cfg = {
  seed : int;
  torn_tail_prob : float;
  lost_fsync_prob : float;
  lost_fsync_window : int;
  reordered_flush_prob : float;
  dup_replay_prob : float;
}

let fault_cfg ?(seed = 0) ?(torn_tail_prob = 0.) ?(lost_fsync_prob = 0.)
    ?(lost_fsync_window = 3) ?(reordered_flush_prob = 0.)
    ?(dup_replay_prob = 0.) () =
  {
    seed;
    torn_tail_prob;
    lost_fsync_prob;
    lost_fsync_window = max 1 lost_fsync_window;
    reordered_flush_prob;
    dup_replay_prob;
  }

let faults_disabled c =
  c.torn_tail_prob = 0. && c.lost_fsync_prob = 0.
  && c.reordered_flush_prob = 0. && c.dup_replay_prob = 0.

type damage = {
  torn_records : int;
  lost_records : int;
  reordered_records : int;
  duplicated_records : int;
  lost_writes : int;
}

let no_damage d =
  d.torn_records = 0 && d.lost_records = 0 && d.reordered_records = 0
  && d.duplicated_records = 0

let damaged_records d =
  d.torn_records + d.lost_records + d.reordered_records
  + d.duplicated_records

let zero_damage =
  {
    torn_records = 0;
    lost_records = 0;
    reordered_records = 0;
    duplicated_records = 0;
    lost_writes = 0;
  }

type t = {
  cfg : fault_cfg;
  rng : Rng.t;  (* dedicated stream: never shared with the workload *)
  mutable log : record list;  (* newest first *)
  mutable appended : int;
}

let create ?(faults = fault_cfg ()) () =
  { cfg = faults; rng = Rng.create faults.seed; log = []; appended = 0 }

let append t r =
  t.log <- r :: t.log;
  t.appended <- t.appended + 1

(* Install a durable-log image wholesale.  A promoted replica's WAL
   starts from the survivor prefix shipped by replication, not empty —
   but those records were appended (and counted) by the deposed primary,
   so [appended] is deliberately left untouched. *)
let preload t records = t.log <- List.rev records

let appended t = t.appended
let size t = List.length t.log

(* --- fault application, all on [records] in append (oldest-first) order --- *)

(* Torn tail: the last record keeps only a strict prefix of its writes
   (half, rounded down — a single-write record loses everything). *)
let apply_torn records damage =
  match List.rev records with
  | [] -> (records, damage)
  | last :: before ->
    let n = List.length last.writes in
    let keep = n / 2 in
    let torn = { last with writes = List.filteri (fun i _ -> i < keep) last.writes } in
    ( List.rev (torn :: before),
      {
        damage with
        torn_records = damage.torn_records + 1;
        lost_writes = damage.lost_writes + (n - keep);
      } )

(* Lost fsync: drop the newest 1 + int(window) records. *)
let apply_lost rng window records damage =
  let len = List.length records in
  if len = 0 then (records, damage)
  else begin
    let lose = min len (1 + Rng.int rng window) in
    let keep = len - lose in
    let survivors = List.filteri (fun i _ -> i < keep) records in
    let writes_lost =
      List.filteri (fun i _ -> i >= keep) records
      |> List.fold_left (fun acc r -> acc + List.length r.writes) 0
    in
    ( survivors,
      {
        damage with
        lost_records = damage.lost_records + lose;
        lost_writes = damage.lost_writes + writes_lost;
      } )
  end

(* Reordered flush: one interior record in the tail window was flushed
   after its successors and is lost, leaving a hole.  Needs at least two
   records so the hole is genuinely interior (a successor survives). *)
let apply_reorder rng window records damage =
  let len = List.length records in
  if len < 2 then (records, damage)
  else begin
    let lo = max 0 (len - 1 - window) in
    let victim = Rng.int_in rng lo (len - 2) in
    let lost = List.nth records victim in
    ( List.filteri (fun i _ -> i <> victim) records,
      {
        damage with
        reordered_records = damage.reordered_records + 1;
        lost_writes = damage.lost_writes + List.length lost.writes;
      } )
  end

(* Dup replay: pick a record superseded by a later survivor (a later
   record writes one of its cells) and re-apply it after everything else.
   Without supersession the duplicate would be idempotent, so no fault is
   planted in that case. *)
let pick_dup rng records =
  let arr = Array.of_list records in
  let n = Array.length arr in
  let superseded i =
    List.exists
      (fun w ->
        let rec later j =
          j < n
          && (List.exists (fun w' -> Cell.equal w'.cell w.cell) arr.(j).writes
             || later (j + 1))
        in
        later (i + 1))
      arr.(i).writes
  in
  let candidates = ref [] in
  for i = n - 2 downto 0 do
    if superseded i then candidates := i :: !candidates
  done;
  match !candidates with
  | [] -> None
  | l -> Some (List.nth l (Rng.int rng (List.length l)))

let apply_dup rng records damage =
  match pick_dup rng records with
  | None -> (records, damage)
  | Some i ->
    let victim = List.nth records i in
    ( records @ [ victim ],
      { damage with duplicated_records = damage.duplicated_records + 1 } )

let crash t =
  let cfg = t.cfg in
  let rng = t.rng in
  let records = List.rev t.log in
  (* One draw per fault per crash, in a fixed order, so the stream stays
     aligned across runs regardless of which faults fire. *)
  let roll_torn = Rng.chance rng cfg.torn_tail_prob in
  let roll_lost = Rng.chance rng cfg.lost_fsync_prob in
  let roll_reorder = Rng.chance rng cfg.reordered_flush_prob in
  let roll_dup = Rng.chance rng cfg.dup_replay_prob in
  let records, damage =
    if roll_lost then apply_lost rng cfg.lost_fsync_window records zero_damage
    else (records, zero_damage)
  in
  let records, damage =
    if roll_reorder then apply_reorder rng cfg.lost_fsync_window records damage
    else (records, damage)
  in
  let records, damage =
    if roll_torn then apply_torn records damage else (records, damage)
  in
  let replay, damage =
    if roll_dup then apply_dup rng records damage else (records, damage)
  in
  (* The durable log restarts from the survivors — the replay duplicate
     is a recovery artifact, not a log entry. *)
  t.log <- List.rev records;
  (replay, damage)
