module Min_heap = Leopard_util.Min_heap

let drain heap =
  let rec go acc =
    match Min_heap.pop heap with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []

let test_empty () =
  let h = Min_heap.create ~compare in
  Alcotest.(check bool) "is_empty" true (Min_heap.is_empty h);
  Alcotest.(check (option int)) "peek" None (Min_heap.peek h);
  Alcotest.(check (option int)) "pop" None (Min_heap.pop h)

let test_sorted_output () =
  let h = Min_heap.create ~compare in
  List.iter (Min_heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 7; 8; 9 ] (drain h)

let test_duplicates () =
  let h = Min_heap.create ~compare in
  List.iter (Min_heap.push h) [ 2; 2; 1; 2 ];
  Alcotest.(check (list int)) "dups kept" [ 1; 2; 2; 2 ] (drain h)

let test_stability_on_ties () =
  (* elements with equal keys pop in insertion order *)
  let h = Min_heap.create ~compare:(fun (a, _) (b, _) -> compare a b) in
  List.iter (Min_heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  Alcotest.(check (list string)) "tie order" [ "z"; "a"; "b"; "c" ]
    (List.map snd (drain h))

let test_peak_length () =
  let h = Min_heap.create ~compare in
  List.iter (Min_heap.push h) [ 1; 2; 3; 4 ];
  ignore (Min_heap.pop h);
  ignore (Min_heap.pop h);
  Min_heap.push h 5;
  Alcotest.(check int) "peak" 4 (Min_heap.peak_length h);
  Alcotest.(check int) "length" 3 (Min_heap.length h)

let test_drain_while () =
  let h = Min_heap.create ~compare in
  List.iter (Min_heap.push h) [ 4; 1; 3; 9; 2 ];
  let small = Min_heap.drain_while h (fun x -> x <= 3) in
  Alcotest.(check (list int)) "drained prefix" [ 1; 2; 3 ] small;
  Alcotest.(check (option int)) "next is 4" (Some 4) (Min_heap.peek h)

let test_pop_exn () =
  let h = Min_heap.create ~compare in
  Alcotest.check_raises "empty pop_exn"
    (Invalid_argument "Min_heap.pop_exn: empty heap") (fun () ->
      ignore (Min_heap.pop_exn h))

let test_to_sorted_list_nondestructive () =
  let h = Min_heap.create ~compare in
  List.iter (Min_heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted view" [ 1; 2; 3 ]
    (Min_heap.to_sorted_list h);
  Alcotest.(check int) "heap intact" 3 (Min_heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Min_heap.create ~compare in
      List.iter (Min_heap.push h) xs;
      drain h = List.sort compare xs)

let prop_interleaved =
  QCheck.Test.make ~name:"interleaved push/pop maintains order" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Min_heap.create ~compare in
      let model = ref [] in
      List.for_all
        (fun (is_pop, x) ->
          if is_pop then begin
            let expected =
              match !model with
              | [] -> None
              | l ->
                let m = List.fold_left min max_int l in
                Some m
            in
            let got = Min_heap.pop h in
            (match expected with
            | Some m ->
              model :=
                (let rec remove = function
                   | [] -> []
                   | y :: tl -> if y = m then tl else y :: remove tl
                 in
                 remove !model)
            | None -> ());
            got = expected
          end
          else begin
            Min_heap.push h x;
            model := x :: !model;
            true
          end)
        ops)

(* fold sees exactly the stored elements: popped ones are gone even
   though their slots are not cleared *)
let test_fold_visits_stored_elements () =
  let h = Min_heap.create ~compare in
  List.iter (Min_heap.push h) [ 6; 3; 8; 1; 5 ];
  ignore (Min_heap.pop h);
  Min_heap.push h 4;
  Alcotest.(check (list int)) "stored elements" [ 3; 4; 5; 6; 8 ]
    (List.sort compare (Min_heap.fold (fun acc x -> x :: acc) [] h));
  Alcotest.(check int) "heap intact" 5 (Min_heap.length h);
  Min_heap.clear h;
  Alcotest.(check int) "cleared" 0 (Min_heap.fold (fun n _ -> n + 1) 0 h)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "sorted output" `Quick test_sorted_output;
    Alcotest.test_case "duplicates" `Quick test_duplicates;
    Alcotest.test_case "stability on ties" `Quick test_stability_on_ties;
    Alcotest.test_case "peak length" `Quick test_peak_length;
    Alcotest.test_case "drain_while" `Quick test_drain_while;
    Alcotest.test_case "pop_exn on empty" `Quick test_pop_exn;
    Alcotest.test_case "to_sorted_list non-destructive" `Quick
      test_to_sorted_list_nondestructive;
    Alcotest.test_case "fold visits the stored elements" `Quick
      test_fold_visits_stored_elements;
    Helpers.qtest prop_heap_sorts;
    Helpers.qtest prop_interleaved;
  ]
