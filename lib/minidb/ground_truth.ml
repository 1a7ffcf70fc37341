module Cell = Leopard_trace.Cell

type dep_kind = Ww | Wr | Rw

let dep_kind_rank = function Ww -> 0 | Wr -> 1 | Rw -> 2

type dep = {
  kind : dep_kind;
  from_txn : int;
  to_txn : int;
  from_op : int;
  to_op : int;
  row_only : bool;
}

(* total typed order: kind, then endpoints, then ops — [deps] returns a
   sorted list so the ground truth reads the same on every run *)
let compare_dep a b =
  let c = Int.compare (dep_kind_rank a.kind) (dep_kind_rank b.kind) in
  if c <> 0 then c
  else
    let c = Int.compare a.from_txn b.from_txn in
    if c <> 0 then c
    else
      let c = Int.compare a.to_txn b.to_txn in
      if c <> 0 then c
      else
        let c = Int.compare a.from_op b.from_op in
        if c <> 0 then c
        else
          let c = Int.compare a.to_op b.to_op in
          if c <> 0 then c else Bool.compare a.row_only b.row_only

type install = { itxn : int; iop : int }

type read_record = {
  rcell : Cell.t;
  reader : int;
  rop : int;
  seen_writer : int;
  seen_op : int;
}

type t = {
  cell_chains : install list ref Cell.Tbl.t;  (* newest first *)
  row_chains : (int * int, install list ref) Hashtbl.t;  (* newest first *)
  mutable reads : read_record list;
}

let create () =
  {
    cell_chains = Cell.Tbl.create 4096;
    row_chains = Hashtbl.create 1024;
    reads = [];
  }

let chain_ref tbl_find tbl_add key =
  match tbl_find key with
  | Some r -> r
  | None ->
    let r = ref [] in
    tbl_add key r;
    r

let record_cell_install t cell ~txn ~op =
  let r =
    chain_ref
      (Cell.Tbl.find_opt t.cell_chains)
      (Cell.Tbl.add t.cell_chains) cell
  in
  r := { itxn = txn; iop = op } :: !r

let record_row_install t row ~txn ~op =
  let r =
    chain_ref
      (Hashtbl.find_opt t.row_chains)
      (Hashtbl.replace t.row_chains) row
  in
  r := { itxn = txn; iop = op } :: !r

let record_read t cell ~reader ~op ~seen_writer ~seen_op =
  t.reads <-
    { rcell = cell; reader; rop = op; seen_writer; seen_op } :: t.reads

let deps t ~committed =
  let out = Hashtbl.create 4096 in
  let add ~kind ~from_txn ~to_txn ~from_op ~to_op ~row_only =
    if
      from_txn >= 0 && to_txn >= 0 && from_txn <> to_txn
      && committed from_txn && committed to_txn
    then begin
      let key = (kind, from_txn, to_txn) in
      match Hashtbl.find_opt out key with
      | Some existing ->
        (* A cell-level witness supersedes a row-only one. *)
        if existing.row_only && not row_only then
          Hashtbl.replace out key
            { kind; from_txn; to_txn; from_op; to_op; row_only }
      | None ->
        Hashtbl.replace out key
          { kind; from_txn; to_txn; from_op; to_op; row_only }
    end
  in
  let chain_ww ~row_only chain =
    (* chain is newest-first: successor precedes predecessor. *)
    let rec go = function
      | newer :: older :: rest ->
        add ~kind:Ww ~from_txn:older.itxn ~to_txn:newer.itxn
          ~from_op:older.iop ~to_op:newer.iop ~row_only;
        go (older :: rest)
      | [ _ ] | [] -> ()
    in
    go chain
  in
  (* lint: allow hashtbl-order — each chain feeds the [out] dedup table
     keyed by (kind, from, to); a cell-level witness supersedes a
     row-only one whichever lands first, so visit order is immaterial *)
  Cell.Tbl.iter (fun _cell r -> chain_ww ~row_only:false !r) t.cell_chains;
  (* lint: allow hashtbl-order — same dedup-table argument as above *)
  Hashtbl.iter (fun _row r -> chain_ww ~row_only:true !r) t.row_chains;
  (* Reads: wr provenance and rw to the next committed version. *)
  List.iter
    (fun rr ->
      if committed rr.reader then begin
        add ~kind:Wr ~from_txn:rr.seen_writer ~to_txn:rr.reader
          ~from_op:rr.seen_op ~to_op:rr.rop ~row_only:false;
        match Cell.Tbl.find_opt t.cell_chains rr.rcell with
        | None -> ()
        | Some chain ->
          (* Find the install directly newer than the one observed: walk
             newest-first until we hit the observed writer; the element we
             passed last is the direct successor. *)
          let rec find_successor prev = function
            | [] ->
              (* Observed the initial version (or an uncommitted one):
                 the oldest chain element is the direct successor. *)
              if rr.seen_writer = -1 then prev else None
            | i :: rest ->
              if i.itxn = rr.seen_writer then prev
              else find_successor (Some i) rest
          in
          (match find_successor None !chain with
          | Some succ ->
            add ~kind:Rw ~from_txn:rr.reader ~to_txn:succ.itxn
              ~from_op:rr.rop ~to_op:succ.iop ~row_only:false
          | None -> ())
      end)
    t.reads;
  Hashtbl.fold (fun _ d acc -> d :: acc) out []
  |> List.sort compare_dep
