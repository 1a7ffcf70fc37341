module Interval = Leopard_util.Interval
module Gt = Minidb.Ground_truth

type beta = {
  total : int;
  overlapping : int;
  ww : int * int;
  wr : int * int;
  rw : int * int;
}

let ratio b =
  if b.total = 0 then 0.0
  else float_of_int b.overlapping /. float_of_int b.total

(* A dependency is measurable when both endpoint operations have traces
   (dependencies on the initial load do not). *)
let fold_deps outcome f init =
  let iv = outcome.Run.op_interval in
  List.fold_left
    (fun acc (d : Gt.dep) ->
      match (iv d.from_op, iv d.to_op) with
      | Some ia, Some ib -> f acc d (Interval.overlaps ia ib)
      | _ -> acc)
    init (Lazy.force outcome.Run.truth_deps)

let compute outcome =
  fold_deps outcome
    (fun acc d overl ->
      let bump (a, b) = (a + 1, if overl then b + 1 else b) in
      let acc =
        {
          acc with
          total = acc.total + 1;
          overlapping = (acc.overlapping + if overl then 1 else 0);
        }
      in
      match d.kind with
      | Gt.Ww -> { acc with ww = bump acc.ww }
      | Gt.Wr -> { acc with wr = bump acc.wr }
      | Gt.Rw -> { acc with rw = bump acc.rw })
    { total = 0; overlapping = 0; ww = (0, 0); wr = (0, 0); rw = (0, 0) }

type classified = { beta : beta; deduced : int; uncertain : int }

let classify outcome ~deduced =
  let beta = compute outcome in
  let ded, unc =
    fold_deps outcome
      (fun (ded, unc) d overl ->
        if not overl then (ded, unc)
        else if deduced d.kind d.from_txn d.to_txn then (ded + 1, unc)
        else (ded, unc + 1))
      (0, 0)
  in
  { beta; deduced = ded; uncertain = unc }
