module Interval = Leopard_util.Interval

type value = string list

let line values = String.concat "\t" (List.concat values)
let record tag values = line ([ tag ] :: values)
let int n = [ string_of_int n ]
let bool b = [ string_of_bool b ]
let name s = [ s ]
let text s = [ String.escaped s ]
let iv i = [ string_of_int (Interval.bef i); string_of_int (Interval.aft i) ]
let opt_iv = function Some i -> iv i | None -> [ "-"; "-" ]

let cell (c : Cell.t) =
  [ string_of_int c.table; string_of_int c.row; string_of_int c.col ]

let tuple values = String.concat "," (List.concat values)
let ints l = [ tuple (List.map int l) ]
let entries f l = [ String.concat ";" (List.map (fun x -> tuple (f x)) l) ]
let opt f = function Some x -> [ tuple (f x) ] | None -> [ "-" ]

module Cursor = struct
  (* The [sep]-separated fields of [line] between [pos] and [stop];
     [pos > stop] once the last one has been read. *)
  type t = {
    line : string;
    tag : string;
    sep : char;
    stop : int;
    mutable pos : int;
  }

  let tag r = r.tag
  let fail r = failwith ("malformed " ^ r.tag)

  (* The next field, as a range of [line]. *)
  let field r =
    if r.pos > r.stop then fail r;
    let start = r.pos in
    let rec scan i =
      if i < r.stop && r.line.[i] <> r.sep then scan (i + 1) else i
    in
    let stop = scan start in
    r.pos <- stop + 1;
    (start, stop)

  let close r = if r.pos <= r.stop then fail r

  let name r =
    let start, stop = field r in
    String.sub r.line start (stop - start)

  let of_int r s = match int_of_string_opt s with Some n -> n | None -> fail r
  let int r = of_int r (name r)

  let text r =
    match Scanf.unescaped (name r) with
    | s -> s
    | exception Scanf.Scan_failure _ -> fail r

  let choice r to_string all =
    let s = name r in
    match List.find_opt (fun x -> String.equal (to_string x) s) all with
    | Some x -> x
    | None -> fail r

  let bool r = choice r string_of_bool [ true; false ]

  let interval r bef aft =
    try Interval.make ~bef ~aft with Invalid_argument _ -> fail r

  let iv r =
    let bef = int r in
    interval r bef (int r)

  let opt_iv r =
    match name r with
    | "-" ->
      if name r <> "-" then fail r;
      None
    | bef -> Some (interval r (of_int r bef) (int r))

  let cell r =
    let table = int r in
    let row = int r in
    Cell.make ~table ~row ~col:(int r)

  (* [f] over a [,]-separated range, which it must consume. *)
  let within r (start, stop) f =
    let c = { r with sep = ','; pos = start; stop } in
    let x = f c in
    close c;
    x

  (* The next field's [sep]-separated pieces, each read by [f]; an empty
     field is an empty list. *)
  let pieces r sep f =
    let start, stop = field r in
    let c = { r with sep; pos = start; stop } in
    let rec go acc =
      if c.pos > c.stop then List.rev acc else go (f c :: acc)
    in
    if start = stop then [] else go []

  let ints r = pieces r ',' int
  let entries r f = pieces r ';' (fun c -> within c (field c) f)

  let opt r f =
    match field r with
    | start, stop when stop = start + 1 && r.line.[start] = '-' -> None
    | range -> Some (within r range f)

  let read ?tag line f =
    let stop = String.length line in
    let r = { line; tag = ""; sep = '\t'; stop; pos = 0 } in
    let tag = match tag with Some tag -> tag | None -> name r in
    let r = { r with tag } in
    let x = f r in
    close r;
    x
end
