(* Model test for the deduction log: random sequences of operations run
   against [Dep.Log] and against an association list that spells out the
   log's contract — a (kind, from, to) triple is logged once and keeps
   the source that logged it first, a sweep drops every entry its
   predicate rejects and reports each dropped entry's source, and
   [entries] lists the log in (kind, from, to) order. *)

module Dep = Leopard.Dep
module Log = Dep.Log
module Gen = QCheck.Gen

(* A sweep keeps an entry of kind [spared] and every entry whose
   endpoints are both kept; it keeps an id unless the id is listed in
   [drop] or, with a nonzero [modulus], divisible by it. *)
type keep = { drop : int list; modulus : int; spared : Dep.kind option }

let kept k kind a b =
  let id_kept id =
    (not (List.mem id k.drop)) && (k.modulus = 0 || id mod k.modulus <> 0)
  in
  (id_kept a && id_kept b) || k.spared = Some kind

type op =
  | Add of Dep.t
  | Mem of Dep.kind * int * int
  | Sweep of keep
  | Entries
  | By_source
  | Count

let show_dep (d : Dep.t) =
  Printf.sprintf "%s %d->%d %s" (Dep.kind_to_string d.kind) d.from_txn
    d.to_txn
    (Dep.source_to_string d.source)

let show_op = function
  | Add d -> "add " ^ show_dep d
  | Mem (k, a, b) -> Printf.sprintf "mem %s %d->%d" (Dep.kind_to_string k) a b
  | Sweep k ->
    Printf.sprintf "sweep drop=[%s] mod=%d spared=%s"
      (String.concat ";" (List.map string_of_int k.drop))
      k.modulus
      (Option.fold ~none:"-" ~some:Dep.kind_to_string k.spared)
  | Entries -> "entries"
  | By_source -> "by_source"
  | Count -> "count"

let kind_rank = function Dep.Ww -> 0 | Dep.Wr -> 1 | Dep.Rw -> 2

let same_key (k, a, b) (d : Dep.t) =
  kind_rank k = kind_rank d.kind && a = d.from_txn && b = d.to_txn

let canonical (a : Dep.t) (b : Dep.t) =
  let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
  if c <> 0 then c
  else
    let c = Int.compare a.from_txn b.from_txn in
    if c <> 0 then c else Int.compare a.to_txn b.to_txn

let sources_sorted l =
  List.sort (fun a b -> Int.compare (Dep.source_rank a) (Dep.source_rank b)) l

(* Run [ops] against a fresh log and the model; [Error] names the first
   operation whose results differ. *)
let run ops =
  let log = Log.create () in
  let model = ref [] in
  let check i op ok = if ok then Ok () else Error (i, show_op op) in
  let step i op =
    match op with
    | Add d ->
      let fresh =
        not (List.exists (same_key (d.kind, d.from_txn, d.to_txn)) !model)
      in
      if fresh then model := d :: !model;
      check i op (Bool.equal (Log.add log d) fresh)
    | Mem (k, a, b) ->
      check i op
        (Bool.equal (Log.mem log k a b) (List.exists (same_key (k, a, b)) !model))
    | Sweep k ->
      let stay, gone =
        List.partition
          (fun (d : Dep.t) -> kept k d.kind d.from_txn d.to_txn)
          !model
      in
      model := stay;
      let reported = ref [] in
      Log.sweep log ~keep:(kept k) (fun s -> reported := s :: !reported);
      check i op
        (sources_sorted !reported
        = sources_sorted (List.map (fun (d : Dep.t) -> d.source) gone))
    | Entries -> check i op (Log.entries log = List.sort canonical !model)
    | By_source ->
      let expected =
        List.filter_map
          (fun s ->
            match
              List.length
                (List.filter (fun (d : Dep.t) -> d.source = s) !model)
            with
            | 0 -> None
            | n -> Some (s, n))
          Dep.all_sources
      in
      check i op (Log.by_source log = expected)
    | Count -> check i op (Log.count log = List.length !model)
  in
  let rec go i = function
    | [] ->
      (* whatever the sequence, the log ends equal to the model *)
      if Log.entries log = List.sort canonical !model then Ok ()
      else Error (i, "final entries")
    | op :: rest -> (
      match step i op with Ok () -> go (i + 1) rest | Error _ as e -> e)
  in
  go 0 ops

let holds ops =
  match run ops with
  | Ok () -> true
  | Error (i, what) ->
    QCheck.Test.fail_reportf "operation %d (%s) disagrees with the model" i
      what

(* Ids cluster on a few small values, so triples repeat and sweeps hit
   logged endpoints, and reach [max_int]: every non-negative int is a
   valid id. *)
let id =
  Gen.frequency
    [
      (8, Gen.int_bound 12);
      (1, Gen.oneofl [ max_int; max_int - 1; max_int / 3; 1 lsl 40 ]);
    ]

let kind = Gen.oneofl Dep.[ Ww; Wr; Rw ]
let source = Gen.oneofl Dep.all_sources

let dep_between from_txn to_txn =
  Gen.map2
    (fun kind source -> { Dep.kind; from_txn; to_txn; source })
    kind source

let dep = Gen.(id >>= fun a -> id >>= fun b -> dep_between a b)

let keep =
  Gen.map3
    (fun drop modulus spared -> { drop; modulus; spared })
    (Gen.list_size (Gen.int_bound 3) id)
    (Gen.oneofl [ 0; 0; 2; 3 ])
    (Gen.opt kind)

let op =
  Gen.frequency
    [
      (10, Gen.map (fun d -> Add d) dep);
      (4, Gen.map3 (fun k a b -> Mem (k, a, b)) kind id id);
      (1, Gen.map (fun k -> Sweep k) keep);
      (1, Gen.return Entries);
      (1, Gen.return By_source);
      (1, Gen.return Count);
    ]

let ops_arb ?shrink gen =
  QCheck.make ?shrink gen ~print:(fun ops ->
      String.concat "\n" (List.map show_op ops))

let prop_random_sequences =
  QCheck.Test.make ~name:"log matches the association-list model" ~count:500
    (ops_arb ~shrink:QCheck.Shrink.list
       (Gen.list_size (Gen.int_range 0 300) op))
    holds

(* One transaction with 10,000 edges and more: its row grows through
   every capacity, a sweep rebuilds it without the dropped targets, and
   re-deductions from other sources must not replace the first. *)
let hub_sequence =
  let open Gen in
  let edges = 10_000 in
  let shape = pair kind source in
  oneofl [ 12; max_int ] >>= fun hub ->
  let add target (kind, source) =
    Add { Dep.kind; from_txn = hub; to_txn = target; source }
  in
  (* distinct targets, spread over about 2^34 ids *)
  list_repeat edges (int_bound ((1 lsl 20) - 1)) >>= fun offsets ->
  let targets = List.mapi (fun i r -> (i lsl 20) lor r) offsets in
  list_repeat edges shape >>= fun shapes ->
  list_repeat 200 (pair (oneofl targets) shape) >>= fun again ->
  list_repeat 200 (map2 (fun k b -> Mem (k, hub, b)) kind (oneofl targets))
  >>= fun mems ->
  list_size (int_range 0 50) op >>= fun others ->
  return
    (List.map2 add targets shapes
    @ List.map (fun (target, shape) -> add target shape) again
    @ mems @ others
    @ [
        Count; By_source; Sweep { drop = []; modulus = 7; spared = None };
        Entries; Count; By_source;
      ]
    @ mems
    @ [
        Sweep { drop = [ hub ]; modulus = 0; spared = Some Dep.Wr }; Entries;
        Count;
      ])

let prop_hub_row =
  QCheck.Test.make ~name:"a 10,000-edge row matches the model" ~count:3
    (ops_arb hub_sequence) holds

let suite =
  [ Helpers.qtest prop_random_sequences; Helpers.qtest prop_hub_row ]
