type level =
  | Read_committed
  | Repeatable_read
  | Snapshot_isolation
  | Serializable

let level_to_string = function
  | Read_committed -> "RC"
  | Repeatable_read -> "RR"
  | Snapshot_isolation -> "SI"
  | Serializable -> "SR"

let level_of_string = function
  | "RC" | "rc" | "read-committed" -> Some Read_committed
  | "RR" | "rr" | "repeatable-read" -> Some Repeatable_read
  | "SI" | "si" | "snapshot-isolation" -> Some Snapshot_isolation
  | "SR" | "sr" | "serializable" -> Some Serializable
  | _ -> None

type cr_level = Txn_level | Stmt_level

type sc_kind = Ssi | Mvto | Occ_validate

type lock_granularity = Row_locks | Table_locks

let sc_kind_to_string = function
  | Ssi -> "SSI"
  | Mvto -> "MVTO"
  | Occ_validate -> "OCC"

type mechanisms = {
  me_writes : bool;
  me_locking_reads : bool;
  me_reads : bool;
  cr : cr_level option;
  fuw : bool;
  sc : sc_kind option;
  lock_granularity : lock_granularity;
}

let mechanism_letters m =
  let parts = ref [] in
  if m.sc <> None then parts := "SC" :: !parts;
  if m.fuw then parts := "FUW" :: !parts;
  if m.cr <> None then parts := "CR" :: !parts;
  if m.me_writes || m.me_reads then parts := "ME" :: !parts;
  String.concat "+" !parts
