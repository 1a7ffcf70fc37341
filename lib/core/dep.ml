type kind = Ww | Wr | Rw

let kind_to_string = function Ww -> "ww" | Wr -> "wr" | Rw -> "rw"

type source =
  | Direct
  | From_cr
  | From_me
  | From_fuw
  | From_version_order
  | Derived_rw

let source_to_string = function
  | Direct -> "direct"
  | From_cr -> "cr"
  | From_me -> "me"
  | From_fuw -> "fuw"
  | From_version_order -> "version-order"
  | Derived_rw -> "derived-rw"

let all_sources =
  [ Direct; From_cr; From_me; From_fuw; From_version_order; Derived_rw ]

(* declaration order; pins the report ordering of [Log.by_source] *)
let source_rank = function
  | Direct -> 0
  | From_cr -> 1
  | From_me -> 2
  | From_fuw -> 3
  | From_version_order -> 4
  | Derived_rw -> 5

type t = { kind : kind; from_txn : int; to_txn : int; source : source }

module Log = struct
  type dep = t

  type nonrec t = {
    entries : (kind * int * int, dep) Hashtbl.t;
    by_txn : (int, (kind * int * int) list) Hashtbl.t;
  }

  let create () = { entries = Hashtbl.create 4096; by_txn = Hashtbl.create 1024 }

  let remember_txn t txn key =
    let keys = Option.value ~default:[] (Hashtbl.find_opt t.by_txn txn) in
    Hashtbl.replace t.by_txn txn (key :: keys)

  let add t (d : dep) =
    let key = (d.kind, d.from_txn, d.to_txn) in
    if Hashtbl.mem t.entries key then false
    else begin
      Hashtbl.replace t.entries key d;
      remember_txn t d.from_txn key;
      remember_txn t d.to_txn key;
      true
    end

  let mem t kind from_txn to_txn = Hashtbl.mem t.entries (kind, from_txn, to_txn)
  let count t = Hashtbl.length t.entries

  let by_source t =
    let tally = Hashtbl.create 8 in
    (* lint: allow hashtbl-order — counting into a tally is commutative *)
    Hashtbl.iter
      (fun _ d ->
        let c = Option.value ~default:0 (Hashtbl.find_opt tally d.source) in
        Hashtbl.replace tally d.source (c + 1))
      t.entries;
    Hashtbl.fold (fun s c acc -> (s, c) :: acc) tally []
    |> List.sort (fun (a, _) (b, _) ->
           Int.compare (source_rank a) (source_rank b))

  (* lint: allow hashtbl-order — the log is a set to its consumers: the
     checker re-derives any order it needs from transaction ids *)
  let iter t f = Hashtbl.iter (fun _ d -> f d) t.entries

  let txns t =
    Hashtbl.fold (fun txn _ acc -> txn :: acc) t.by_txn []
    |> List.sort_uniq Int.compare

  let take_txn t txn =
    match Hashtbl.find_opt t.by_txn txn with
    | None -> []
    | Some keys ->
      Hashtbl.remove t.by_txn txn;
      List.filter_map
        (fun key ->
          match Hashtbl.find_opt t.entries key with
          | None -> None
          | Some d ->
            Hashtbl.remove t.entries key;
            Some d)
        keys

  let kind_rank = function Ww -> 0 | Wr -> 1 | Rw -> 2

  let entries t =
    Hashtbl.fold (fun _ d acc -> d :: acc) t.entries []
    |> List.sort (fun a b ->
           let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
           if c <> 0 then c
           else
             let c = Int.compare a.from_txn b.from_txn in
             if c <> 0 then c
             else
               let c = Int.compare a.to_txn b.to_txn in
               if c <> 0 then c
               else Int.compare (source_rank a.source) (source_rank b.source))
end
