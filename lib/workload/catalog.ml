(* Two hot-spot read-modify-write workloads for the fault planes: their
   conflicts are dense enough that a lying replica set or shard group
   leaves a witness on the trace.  A spread-out workload (SmallBank's
   1000 accounts) would leave those planted faults Inconclusive for
   lack of witnesses, not for lack of checker strength. *)

let cell row = Leopard_trace.Cell.make ~table:0 ~row ~col:0

(* One of four hot cells per transaction. *)
let hot_rmw () =
  let next = Spec.fresh_value_counter () in
  let cells = Array.init 4 cell in
  Spec.make ~name:"hot-rmw"
    ~initial:(Array.to_list (Array.map (fun c -> (c, 0)) cells))
    ~next_txn:(fun rng ->
      let c = cells.(Leopard_util.Rng.int rng 4) in
      Program.read [ c ] (fun _ ->
          Program.write_then [ (c, next ()) ] Program.finish))

(* Rows 0 and 2, which a 2-shard ring places on shards 0 and 1; half of
   the transactions touch both, so the 2PC path stays busy. *)
let cross_rmw () =
  let next = Spec.fresh_value_counter () in
  let a = cell 0 and b = cell 2 in
  Spec.make ~name:"cross-rmw"
    ~initial:[ (a, 0); (b, 0) ]
    ~next_txn:(fun rng ->
      match Leopard_util.Rng.int rng 4 with
      | 0 ->
        Program.read [ a ] (fun _ ->
            Program.write_then [ (a, next ()) ] Program.finish)
      | 1 ->
        Program.read [ b ] (fun _ ->
            Program.write_then [ (b, next ()) ] Program.finish)
      | _ ->
        Program.read [ a; b ] (fun _ ->
            Program.write_then [ (a, next ()); (b, next ()) ] Program.finish))

let all =
  [
    ("ycsb", fun () -> Ycsb.spec ~theta:0.8 ());
    ("ycsb+t", fun () -> Ycsb_t.spec ());
    ("tatp", fun () -> Tatp.spec ());
    ("blindw-w", fun () -> Blindw.spec Blindw.W);
    ("blindw-rw", fun () -> Blindw.spec Blindw.RW);
    ("blindw-rw+", fun () -> Blindw.spec Blindw.RW_plus);
    ("smallbank", fun () -> Smallbank.spec ());
    ("tpcc", fun () -> Tpcc.spec ());
    ("hot-rmw", hot_rmw);
    ("cross-rmw", cross_rmw);
  ]

let names = List.map fst all

let find name = Option.map (fun mk -> mk ()) (List.assoc_opt name all)
