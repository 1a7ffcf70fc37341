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

let kind_rank = function Ww -> 0 | Wr -> 1 | Rw -> 2
let kind_of_rank = function 0 -> Ww | 1 -> Wr | _ -> Rw

let source_of_rank = function
  | 0 -> Direct
  | 1 -> From_cr
  | 2 -> From_me
  | 3 -> From_fuw
  | 4 -> From_version_order
  | _ -> Derived_rw

module Log = struct
  type dep = t

  (* Multiply, then fold the high bits down: consecutive or strided ids
     (10, 20, 30, ...) spread over every bucket and slot. *)
  let mix id =
    let h = id * 0x1E3779B97F4A7C15 in
    h lxor (h lsr 29)

  module Itbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = mix
  end)

  (* A row holds the entries leaving one transaction.  [row.(0)] counts
     them; pair [i] is [row.(2i+1)] (the target) and [row.(2i+2)] (its
     tag), in an open-addressed table of power-of-two capacity probed
     linearly.  A tag packs the kind and the source and is never 0; a 0
     tag is an empty pair. *)
  type row = int array

  let tag kind source = 1 + (kind_rank kind lsl 3) + source_rank source
  let tag_kind tag = (tag - 1) lsr 3
  let tag_source tag = (tag - 1) land 7
  let capacity (row : row) = (Array.length row - 1) / 2

  (* Rows of one or two pairs may fill up; larger ones stay a quarter
     empty, so a probe ends after a few pairs. *)
  let limit cap = cap - (cap / 4)

  let rec fit cap n = if limit cap >= n then cap else fit (2 * cap) n
  let fresh_row n : row = Array.make (1 + (2 * fit 1 n)) 0

  let rec probe_from (row : row) target k mask i left =
    if left = 0 then -1
    else
      let p = 2 + (2 * i) in
      let tag = row.(p) in
      if tag = 0 || (row.(p - 1) = target && tag_kind tag = k) then p
      else probe_from row target k mask ((i + 1) land mask) (left - 1)

  (* The tag index of [(target, k)]'s pair, or of the empty pair where it
     would go, or -1 when the row is full and lacks it. *)
  let probe (row : row) target k =
    let mask = capacity row - 1 in
    probe_from row target k mask ((mix target + k) land mask) (mask + 1)

  let found (row : row) p = p >= 0 && row.(p) <> 0

  (* Store a pair known to be absent in a row with room for it. *)
  let place (row : row) target tag =
    let p = probe row target (tag_kind tag) in
    row.(p - 1) <- target;
    row.(p) <- tag;
    row.(0) <- row.(0) + 1

  (* A row sized for [n] entries holding the pairs that pass [keep],
     which is given a pair's target and tag. *)
  let copy_row (row : row) n keep =
    let fresh = fresh_row n in
    for i = 0 to capacity row - 1 do
      let tag = row.(2 + (2 * i)) in
      let target = row.(1 + (2 * i)) in
      if tag <> 0 && keep target tag then place fresh target tag
    done;
    fresh

  type nonrec t = {
    rows : row Itbl.t;  (* from_txn -> its row *)
    mutable count : int;
    sources : int array;  (* live entries per [source_rank] *)
  }

  let create () =
    {
      rows = Itbl.create 1024;
      count = 0;
      sources = Array.make (List.length all_sources) 0;
    }

  let add t (d : dep) =
    let row =
      match Itbl.find t.rows d.from_txn with
      | row -> row
      | exception Not_found ->
        let row = fresh_row 1 in
        Itbl.add t.rows d.from_txn row;
        row
    in
    let k = kind_rank d.kind in
    let p = probe row d.to_txn k in
    if found row p then false
    else begin
      let n = row.(0) + 1 in
      let row =
        if p >= 0 && n <= limit (capacity row) then row
        else begin
          let grown = copy_row row n (fun _ _ -> true) in
          Itbl.replace t.rows d.from_txn grown;
          grown
        end
      in
      place row d.to_txn (tag d.kind d.source);
      t.count <- t.count + 1;
      let s = source_rank d.source in
      t.sources.(s) <- t.sources.(s) + 1;
      true
    end

  let mem t kind from_txn to_txn =
    match Itbl.find t.rows from_txn with
    | row -> found row (probe row to_txn (kind_rank kind))
    | exception Not_found -> false

  let count t = t.count

  let by_source t =
    List.filter_map
      (fun s ->
        match t.sources.(source_rank s) with 0 -> None | n -> Some (s, n))
      all_sources

  let sweep t ~keep dropped =
    let forget tag =
      let s = tag_source tag in
      t.count <- t.count - 1;
      t.sources.(s) <- t.sources.(s) - 1;
      dropped (source_of_rank s)
    in
    (* lint: allow hashtbl-order — every row is filtered on its own
       against [keep], and [dropped]'s order is unspecified *)
    Itbl.filter_map_inplace
      (fun from_txn row ->
        let kept target tag =
          keep (kind_of_rank (tag_kind tag)) from_txn target
        in
        let gone = ref 0 in
        for i = 0 to capacity row - 1 do
          let tag = row.(2 + (2 * i)) in
          if tag <> 0 && not (kept row.(1 + (2 * i)) tag) then begin
            incr gone;
            forget tag
          end
        done;
        let n = row.(0) - !gone in
        if !gone = 0 then Some row
        else if n = 0 then None
        else Some (copy_row row n kept))
      t.rows

  let entries t =
    Itbl.fold
      (fun from_txn row acc ->
        let acc = ref acc in
        for i = 0 to capacity row - 1 do
          let tag = row.(2 + (2 * i)) in
          if tag <> 0 then
            acc :=
              {
                kind = kind_of_rank (tag_kind tag);
                from_txn;
                to_txn = row.(1 + (2 * i));
                source = source_of_rank (tag_source tag);
              }
              :: !acc
        done;
        !acc)
      t.rows []
    |> List.sort (fun a b ->
           let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
           if c <> 0 then c
           else
             let c = Int.compare a.from_txn b.from_txn in
             if c <> 0 then c else Int.compare a.to_txn b.to_txn)
end
