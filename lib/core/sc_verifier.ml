module Interval = Leopard_util.Interval
module Fields = Leopard_trace.Fields
module R = Fields.Cursor

(* rw endpoints carry their interval evidence so that garbage-collecting
   the node (Definition 4 is stated for cycles) can never lose an SSI
   dangerous-structure witness: an in-degree-zero reader may still serve
   as the x of a future x -> pivot -> y pattern. *)
type rw_end = { rtxn : int; rfirst : Interval.t; rterminal : Interval.t }

type node = {
  ntxn : int;
  first_iv : Interval.t;
  terminal_iv : Interval.t;
  mutable out_edges : (int * Dep.kind) list;
  mutable in_degree : int;
  mutable in_rw : rw_end list;  (** sources of incoming rw edges *)
  mutable out_rw : rw_end list;  (** targets of outgoing rw edges *)
}

type t = {
  certifier : Il_profile.certifier option;
  nodes : (int, node) Hashtbl.t;
  mutable edge_count : int;
}

let create certifier = { certifier; nodes = Hashtbl.create 4096; edge_count = 0 }

let note_commit t ~txn ~first_iv ~terminal_iv =
  if not (Hashtbl.mem t.nodes txn) then
    Hashtbl.replace t.nodes txn
      {
        ntxn = txn;
        first_iv;
        terminal_iv;
        out_edges = [];
        in_degree = 0;
        in_rw = [];
        out_rw = [];
      }

let nodes t = Hashtbl.length t.nodes
let edges t = t.edge_count

let referenced_txns t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes []
  |> List.sort_uniq Int.compare

(* An rw(a -> b) edge is SSI-relevant only when a and b were certainly
   concurrent: b certainly began before a committed.  (A non-concurrent
   antidependency is harmless and PostgreSQL's certifier ignores it.) *)
let ssi_concurrent ~reader ~writer =
  Interval.certainly_before writer.first_iv reader.terminal_iv

let ssi_concurrent_ends ~reader_terminal ~writer_first =
  Interval.certainly_before writer_first reader_terminal

let ssi_check a b =
  (* Edge rw(a -> b) just added and certainly concurrent.  A dangerous
     structure exists if some rw(x -> a) makes a a pivot, or some
     rw(b -> y) makes b a pivot. *)
  let bugs = ref [] in
  let report pivot x y =
    bugs :=
      Bug.make ~mechanism:Bug.Sc ~anomaly:Anomaly.Write_skew
        ~txns:[ x; pivot; y ]
        (Printf.sprintf
           "SSI certifier violated: committed pivot %d has consecutive rw \
            antidependencies %d->%d->%d among concurrent transactions"
           pivot x pivot y)
      :: !bugs
  in
  List.iter
    (fun x ->
      if
        ssi_concurrent_ends ~reader_terminal:x.rterminal ~writer_first:a.first_iv
      then report a.ntxn x.rtxn b.ntxn)
    a.in_rw;
  List.iter
    (fun y ->
      if
        ssi_concurrent_ends ~reader_terminal:b.terminal_iv
          ~writer_first:y.rfirst
      then report b.ntxn a.ntxn y.rtxn)
    b.out_rw;
  !bugs

let mvto_check a b =
  (* Dependency a -> b: the certifier forbids a dependency from a younger
     transaction to an older one.  Certain violation iff b certainly began
     before a did. *)
  if Interval.certainly_before b.first_iv a.first_iv then
    [
      Bug.make ~mechanism:Bug.Sc
        ~anomaly:Anomaly.Serialization_order_inversion ~txns:[ a.ntxn; b.ntxn ]
        (Printf.sprintf
           "MVTO certifier violated: dependency %d->%d goes from a \
            certainly-younger to a certainly-older transaction"
           a.ntxn b.ntxn);
    ]
  else []

let reaches t ~src ~dst =
  let visited = Hashtbl.create 64 in
  let rec dfs id =
    if id = dst then true
    else if Hashtbl.mem visited id then false
    else begin
      Hashtbl.replace visited id ();
      match Hashtbl.find_opt t.nodes id with
      | None -> false
      | Some n -> List.exists (fun (next, _) -> dfs next) n.out_edges
    end
  in
  dfs src

let cycle_check t a b =
  (* Edge a -> b: a cycle exists iff b already reaches a. *)
  if reaches t ~src:b.ntxn ~dst:a.ntxn then
    [
      Bug.make ~mechanism:Bug.Sc ~anomaly:Anomaly.Dependency_cycle
        ~txns:[ a.ntxn; b.ntxn ]
        (Printf.sprintf
           "conflict serializability violated: dependency %d->%d closes a \
            cycle of deduced dependencies"
           a.ntxn b.ntxn);
    ]
  else []

let add_dep t (d : Dep.t) =
  match
    (Hashtbl.find_opt t.nodes d.from_txn, Hashtbl.find_opt t.nodes d.to_txn)
  with
  | Some a, Some b when a.ntxn <> b.ntxn ->
    let fresh = not (List.mem (b.ntxn, d.kind) a.out_edges) in
    if not fresh then []
    else begin
      a.out_edges <- (b.ntxn, d.kind) :: a.out_edges;
      b.in_degree <- b.in_degree + 1;
      t.edge_count <- t.edge_count + 1;
      if d.kind = Dep.Rw then begin
        a.out_rw <-
          { rtxn = b.ntxn; rfirst = b.first_iv; rterminal = b.terminal_iv }
          :: a.out_rw;
        b.in_rw <-
          { rtxn = a.ntxn; rfirst = a.first_iv; rterminal = a.terminal_iv }
          :: b.in_rw
      end;
      match t.certifier with
      | None -> []
      | Some Il_profile.Ssi_pattern ->
        if d.kind = Dep.Rw && ssi_concurrent ~reader:a ~writer:b then
          ssi_check a b
        else []
      | Some Il_profile.Mvto_order -> mvto_check a b
      | Some Il_profile.Cycle_detect -> cycle_check t a b
    end
  | _ -> []

let gc t ~frontier =
  let pruned = ref 0 in
  let garbage n = n.in_degree = 0 && Interval.aft n.terminal_iv <= frontier in
  let queue = Queue.create () in
  (* lint: allow hashtbl-order — seeds a deletion fixpoint: every garbage
     node is removed (and counted once) whatever the seeding order *)
  Hashtbl.iter (fun _ n -> if garbage n then Queue.push n queue) t.nodes;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    if Hashtbl.mem t.nodes n.ntxn then begin
      Hashtbl.remove t.nodes n.ntxn;
      incr pruned;
      List.iter
        (fun (target, _) ->
          match Hashtbl.find_opt t.nodes target with
          | Some m ->
            m.in_degree <- m.in_degree - 1;
            if garbage m then Queue.push m queue
          | None -> ())
        n.out_edges;
      t.edge_count <- t.edge_count - List.length n.out_edges
    end
  done;
  !pruned

(* Checkpoint codec: one line per node, txn-sorted.  [out_edges],
   [in_rw] and [out_rw] keep their list order (the certifier checks
   iterate them, pinning bug order); rw witnesses are dumped with their
   interval copies because they may reference nodes the gc already
   removed.  [in_degree] and [edge_count] are recomputed on restore —
   every live out-edge targets a live node (gc only removes in-degree
   zero nodes, removing their out-edges with them). *)
let dump t =
  let rw_ends =
    Fields.entries (fun r -> Fields.[ int r.rtxn; iv r.rfirst; iv r.rterminal ])
  in
  Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []
  |> List.sort (fun a b -> Int.compare a.ntxn b.ntxn)
  |> List.map (fun n ->
         Fields.(
           line
             [
               int n.ntxn; iv n.first_iv; iv n.terminal_iv;
               entries
                 (fun (target, kind) ->
                   [ int target; name (Dep.kind_to_string kind) ])
                 n.out_edges;
               rw_ends n.in_rw; rw_ends n.out_rw;
             ]))

let load t r =
  let rw_end r =
    let rtxn = R.int r in
    let rfirst = R.iv r in
    { rtxn; rfirst; rterminal = R.iv r }
  in
  let ntxn = R.int r in
  let first_iv = R.iv r in
  let terminal_iv = R.iv r in
  let out_edges =
    R.entries r (fun r ->
        let target = R.int r in
        (target, R.choice r Dep.kind_to_string Dep.[ Ww; Wr; Rw ]))
  in
  let in_rw = R.entries r rw_end in
  let out_rw = R.entries r rw_end in
  Hashtbl.replace t.nodes ntxn
    { ntxn; first_iv; terminal_iv; out_edges; in_degree = 0; in_rw; out_rw }

let seal t =
  (* lint: allow hashtbl-order — in-degree increments are commutative *)
  Hashtbl.iter
    (fun _ n ->
      t.edge_count <- t.edge_count + List.length n.out_edges;
      List.iter
        (fun (target, _) ->
          match Hashtbl.find_opt t.nodes target with
          | Some m -> m.in_degree <- m.in_degree + 1
          | None -> failwith "Sc_verifier: edge to unknown node")
        n.out_edges)
    t.nodes

let restore certifier lines =
  let t = create certifier in
  List.iter (fun line -> R.read ~tag:"Sc_verifier" line (load t)) lines;
  seal t;
  t

let has_cycle t =
  let color = Hashtbl.create 64 in
  let rec dfs id =
    match Hashtbl.find_opt color id with
    | Some `Grey -> true
    | Some `Black -> false
    | None -> (
      Hashtbl.replace color id `Grey;
      match Hashtbl.find_opt t.nodes id with
      | None ->
        Hashtbl.replace color id `Black;
        false
      | Some n ->
        let cyc = List.exists (fun (next, _) -> dfs next) n.out_edges in
        Hashtbl.replace color id `Black;
        cyc)
  in
  (* lint: allow hashtbl-order — boolean existence check: a cycle is
     reachable from some node in it, whatever the start order *)
  Hashtbl.fold (fun id _ acc -> acc || dfs id) t.nodes false
