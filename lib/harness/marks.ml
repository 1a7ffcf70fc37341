module Checker = Leopard.Checker
module Codec = Leopard_trace.Codec

type t = {
  epochs : Codec.epoch_mark list;
  ambiguous : int list;
  coord_ambiguous : int list;
  leaders : Codec.leader_mark list;
  indeterminate : int list;
  crashed_clients : int;
  lost_traces : int;
}

let empty =
  { epochs = []; ambiguous = []; coord_ambiguous = []; leaders = [];
    indeterminate = []; crashed_clients = 0; lost_traces = 0 }

let txns = List.map (fun (_client, txn, _at) -> txn)

let wire_ambiguous (o : Run.outcome) =
  (match o.Run.net with Some ns -> ns.Run.ambiguous | None -> [])
  @ o.Run.repl_ambiguous

let of_outcome (o : Run.outcome) =
  {
    epochs = o.Run.epochs;
    ambiguous = txns (wire_ambiguous o);
    coord_ambiguous = txns o.Run.coord_ambiguous;
    leaders = o.Run.leaders;
    indeterminate = o.Run.indeterminate_txns;
    crashed_clients = List.length o.Run.crashed_clients;
    lost_traces = o.Run.chaos_dropped;
  }

let of_codec (c : Codec.contents) ~skipped =
  {
    empty with
    epochs = c.c_epochs;
    ambiguous = List.map (fun (m : Codec.ambiguous_mark) -> m.txn) c.c_ambiguous;
    coord_ambiguous =
      List.filter_map
        (fun (m : Codec.prepare_mark) ->
          if m.disposition = Codec.Unknown then Some m.txn else None)
        c.c_prepares;
    leaders = c.c_leaders;
    lost_traces = skipped;
  }

let record ~path (o : Run.outcome) =
  Codec.save_ext ~path
    ~ambiguous:
      (List.map
         (fun (client, txn, at) -> { Codec.at; txn; client })
         (wire_ambiguous o))
    ~leaders:o.Run.leaders ~shards:o.Run.shard_marks
    ~prepares:o.Run.prepare_marks ~epochs:o.Run.epochs
    (Run.all_traces_sorted o)

let apply checker m =
  if m.lost_traces > 0 then Checker.note_lost_traces checker m.lost_traces;
  List.iter
    (fun (e : Codec.epoch_mark) ->
      Checker.note_restart checker ~at:e.at ~replayed:e.replayed
        ~damaged:e.damaged)
    m.epochs;
  let mark cause = List.iter (fun txn -> Checker.mark checker ~txn cause) in
  mark Checker.Crashed m.indeterminate;
  if m.crashed_clients > 0 then
    Checker.note_crashed_clients checker m.crashed_clients;
  mark Checker.Wire m.ambiguous;
  mark Checker.Coord m.coord_ambiguous;
  List.iter
    (fun (l : Codec.leader_mark) ->
      Checker.note_failover checker ~at:l.at ~epoch:l.epoch ~lost:l.lost)
    m.leaders

let drop n = List.filteri (fun i _ -> i >= n)

(* Ids in [l] but not in [old]; equal lengths mean equal sets, since a
   live channel only ever adds ids. *)
let fresh l ~old =
  if List.compare_lengths l old = 0 then []
  else begin
    let seen = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace seen id ()) old;
    List.filter (fun id -> not (Hashtbl.mem seen id)) l
  end

let since m ~applied =
  {
    epochs = drop (List.length applied.epochs) m.epochs;
    ambiguous = fresh m.ambiguous ~old:applied.ambiguous;
    coord_ambiguous = fresh m.coord_ambiguous ~old:applied.coord_ambiguous;
    leaders = drop (List.length applied.leaders) m.leaders;
    indeterminate = fresh m.indeterminate ~old:applied.indeterminate;
    crashed_clients = m.crashed_clients - applied.crashed_clients;
    lost_traces = m.lost_traces - applied.lost_traces;
  }
