(* lint: allow-file hashtbl-order *)
let dump h = Hashtbl.iter (fun k v -> Printf.printf "%d=%d\n" k v) h

let dump2 h = Hashtbl.fold (fun _ n acc -> n + acc) h 0

let drop_empty h =
  Hashtbl.filter_map_inplace
    (fun _ l -> match l with [] -> None | _ :: _ -> Some l)
    h

let pairs h = List.of_seq (Hashtbl.to_seq h)
let keys h = List.of_seq (Hashtbl.to_seq_keys h)
let values h = List.of_seq (Hashtbl.to_seq_values h)

module Itbl = Hashtbl.Make (Int)

let renamed h = Itbl.iter (fun k v -> Printf.printf "%d=%d\n" k v) h
