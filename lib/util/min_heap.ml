type 'a entry = { value : 'a; seq : int }

type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  mutable peak : int;
}

let create ~compare:cmp =
  { compare = cmp; data = [||]; size = 0; next_seq = 0; peak = 0 }

let length t = t.size
let is_empty t = t.size = 0
let peak_length t = t.peak

let entry_lt t a b =
  let c = t.compare a.value b.value in
  if c <> 0 then c < 0 else a.seq < b.seq

let grow t filler =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let fresh = Array.make ncap filler in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt t t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && entry_lt t t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && entry_lt t t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t value =
  let entry = { value; seq = t.next_seq } in
  grow t entry;
  t.data.(t.size) <- entry;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  if t.size > t.peak then t.peak <- t.size;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0).value

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0).value in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

let pop_exn t =
  match pop t with
  | Some v -> v
  | None -> invalid_arg "Min_heap.pop_exn: empty heap"

let drain_while t keep =
  let rec go acc =
    match peek t with
    | Some v when keep v ->
      ignore (pop t);
      go (v :: acc)
    | Some _ | None -> List.rev acc
  in
  go []

let clear t = t.size <- 0

let to_sorted_list t =
  let copy =
    {
      compare = t.compare;
      data = Array.sub t.data 0 (Array.length t.data);
      size = t.size;
      next_seq = t.next_seq;
      peak = t.peak;
    }
  in
  let rec go acc =
    match pop copy with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i).value
  done;
  !acc
