(** Binary min-heap.

    The global buffer of the two-level pipeline (paper §IV-C) is a min-heap
    keyed by trace before-timestamps; the discrete-event simulator's agenda
    is a min-heap keyed by event time.  This module provides both.

    Ordering is supplied at creation time as a [compare] function; ties are
    broken by insertion order (the heap is stable for equal keys), which the
    simulator relies on for determinism. *)

type 'a t

val create : compare:('a -> 'a -> int) -> 'a t
(** Fresh empty heap with the given ordering. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Insert an element; O(log n). *)

val peek : 'a t -> 'a option
(** Smallest element without removing it; [None] when empty. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element; [None] when empty; O(log n). *)

val pop_exn : 'a t -> 'a
(** Like {!pop} but raises [Invalid_argument] on an empty heap. *)

val drain_while : 'a t -> ('a -> bool) -> 'a list
(** [drain_while t keep] pops elements in heap order as long as [keep]
    holds for the current minimum, returning them in pop order. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructively lists all elements in ascending order.  Costly: it
    copies the heap and pops the copy empty; for deterministic dumps and
    tests, where the order matters. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Folds over every element in heap order, which is not sorted but is
    a function of the push/pop history; O(n), no copy. *)

val peak_length : 'a t -> int
(** High-water mark of {!length} since creation — the pipeline memory
    metric reported in Fig. 10. *)
