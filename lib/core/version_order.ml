module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Interval = Leopard_util.Interval
module Fields = Leopard_trace.Fields
module R = Fields.Cursor

type version = {
  value : Trace.value;
  vtxn : int;
  write_iv : Interval.t;
  commit_iv : Interval.t;
  mutable readers : int list;
}

type chain = { mutable versions : version list (* ascending commit aft *) }

(* [multi] indexes the chains holding two or more versions, the only
   ones [prune] can shorten: a chain's single version is its own pivot.
   [hubs] holds, per cell, a membership table for each version whose
   reader list outgrew [scan_limit]; other versions carry none. *)
type t = {
  chains : chain Cell.Tbl.t;
  multi : chain Cell.Tbl.t;
  hubs : (version * (int, unit) Hashtbl.t) list Cell.Tbl.t;
  mutable live : int;
}

let create () =
  {
    chains = Cell.Tbl.create 4096;
    multi = Cell.Tbl.create 64;
    hubs = Cell.Tbl.create 8;
    live = 0;
  }

let get_chain t cell =
  match Cell.Tbl.find_opt t.chains cell with
  | Some c -> c
  | None ->
    let c = { versions = [] } in
    Cell.Tbl.add t.chains cell c;
    c

(* The chain that [cell]'s next version joins; its second version puts
   it in the index. *)
let growing t cell =
  let c = get_chain t cell in
  (match c.versions with [ _ ] -> Cell.Tbl.replace t.multi cell c | _ -> ());
  c

let install t cell v ~predecessor ~successor =
  let c = growing t cell in
  let key x = Interval.aft x.commit_iv in
  (* Ascending insert; new versions usually go at the tail. *)
  let rec go prev = function
    | [] ->
      predecessor prev;
      successor None;
      [ v ]
    | hd :: tl when key v <= key hd ->
      predecessor prev;
      successor (Some hd);
      v :: hd :: tl
    | hd :: tl -> hd :: go (Some hd) tl
  in
  c.versions <- go None c.versions;
  t.live <- t.live + 1

let chain t cell =
  match Cell.Tbl.find_opt t.chains cell with
  | Some c -> c.versions
  | None -> []

let live_versions t = t.live

let scan_limit = 8

type scan = Listed | Unlisted | Too_long

(* Whether [reader] is among the first [n + 1] readers, or the list ends
   before them without it, or it goes on past them. *)
let rec scan n reader = function
  | [] -> Unlisted
  | r :: rest ->
    if r = reader then Listed
    else if n = 0 then Too_long
    else scan (n - 1) reader rest

let add_reader t cell v reader =
  match scan scan_limit reader v.readers with
  | Listed -> ()
  | Unlisted -> v.readers <- reader :: v.readers
  | Too_long ->
    let hubs = Option.value ~default:[] (Cell.Tbl.find_opt t.hubs cell) in
    let members =
      match List.assq_opt v hubs with
      | Some members -> members
      | None ->
        let members = Hashtbl.create 64 in
        List.iter (fun r -> Hashtbl.replace members r ()) v.readers;
        Cell.Tbl.replace t.hubs cell ((v, members) :: hubs);
        members
    in
    if not (Hashtbl.mem members reader) then begin
      Hashtbl.replace members reader ();
      v.readers <- reader :: v.readers
    end

let iter_multi_writers t f =
  (* lint: allow hashtbl-order — callers collect a membership set *)
  Cell.Tbl.iter (fun _ c -> List.iter (fun v -> f v.vtxn) c.versions) t.multi

(* Checkpoint codec: one line per version, cell-major sorted so the dump
   is deterministic whatever the hashtable's insertion history; versions
   keep their in-chain (ascending commit aft) order and readers keep
   their list order, both of which downstream deductions observe. *)
let dump t =
  Cell.Tbl.fold (fun cell c acc -> (cell, c.versions) :: acc) t.chains []
  |> List.sort (fun (a, _) (b, _) -> Cell.compare a b)
  |> List.concat_map (fun (at, versions) ->
         List.map
           (fun v ->
             Fields.(
               line
                 [
                   cell at; int v.value; int v.vtxn; iv v.write_iv;
                   iv v.commit_iv; ints v.readers;
                 ]))
           versions)

let load t r =
  let cell = R.cell r in
  let value = R.int r in
  let vtxn = R.int r in
  let write_iv = R.iv r in
  let commit_iv = R.iv r in
  let v = { value; vtxn; write_iv; commit_iv; readers = R.ints r } in
  let c = growing t cell in
  c.versions <- v :: c.versions;
  t.live <- t.live + 1

let seal t =
  (* lint: allow hashtbl-order — each chain is reversed in place *)
  Cell.Tbl.iter (fun _ c -> c.versions <- List.rev c.versions) t.multi

let restore lines =
  let t = create () in
  List.iter (fun line -> R.read ~tag:"Version_order" line (load t)) lines;
  seal t;
  t

let prune t ~horizon =
  let dropped = ref 0 in
  (* lint: allow hashtbl-order — per-cell in-place prune plus a
     commutative drop count; a chain back to one version leaves the
     index *)
  Cell.Tbl.filter_map_inplace
    (fun cell c ->
      (* The pivot for any snapshot taken at or after the horizon is at
         least the newest version with commit aft <= horizon.  Versions
         certainly installed before that pivot (aft <= pivot.bef) are
         garbage for every such snapshot; versions overlapping the pivot
         remain possible candidates and must be kept (Fig. 6). *)
      let rec newest_before acc = function
        | [] -> acc
        | v :: tl ->
          if Interval.aft v.commit_iv <= horizon then newest_before (Some v) tl
          else newest_before acc tl
      in
      (match newest_before None c.versions with
      | None -> ()
      | Some pivot ->
        (* Any version at least as new as the horizon-pivot can become
           the pivot of some future snapshot; a version certainly before
           *all* of them is garbage for every future read. *)
        let boundary =
          List.fold_left
            (fun acc v ->
              if Interval.aft v.commit_iv >= Interval.aft pivot.commit_iv
              then min acc (Interval.bef v.commit_iv)
              else acc)
            max_int c.versions
        in
        let keep, garbage =
          List.partition
            (fun v -> v == pivot || Interval.aft v.commit_iv > boundary)
            c.versions
        in
        dropped := !dropped + List.length garbage;
        c.versions <- keep;
        match Cell.Tbl.find_opt t.hubs cell with
        | None -> ()
        | Some hubs -> (
          match List.filter (fun (v, _) -> List.memq v keep) hubs with
          | [] -> Cell.Tbl.remove t.hubs cell
          | hubs -> Cell.Tbl.replace t.hubs cell hubs));
      match c.versions with [ _ ] -> None | _ -> Some c)
    t.multi;
  t.live <- t.live - !dropped;
  !dropped
