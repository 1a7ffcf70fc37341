(** Deterministic pseudo-random number generation.

    Every source of randomness in this repository — workload key choices,
    think times, simulated network latencies, property-test inputs — flows
    through an explicit [Rng.t] so that whole experiments are reproducible
    bit-for-bit from a single seed.

    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    statistically strong, splittable generator.  Splittability matters here:
    each simulated client derives an independent stream from the experiment
    seed, so adding a client never perturbs the streams of the others. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of [t]'s
    future output.  Both generators advance independently afterwards. *)

val copy : t -> t
(** [copy t] duplicates the exact current state (same future stream). *)

val derive : seed:int -> index:int -> int
(** [derive ~seed ~index] is the [index+1]-th raw output of
    [create seed]'s stream, folded to a non-negative [int] — a pure
    function of [(seed, index)] with no generator state.  Campaign grids
    use it to give every cell an independent, citable seed: the same
    [(campaign seed, cell index)] pair always names the same cell seed,
    so a failing cell's exact reproducing command line can be printed
    without consulting any results database.  Raises [Invalid_argument]
    on a negative [index]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val mix64 : int64 -> int64
(** The SplitMix64 finalizer, a pure bijective 64-bit hash: every output
    is [mix64] of a generator state, and [Leopard_shard.Group] hashes
    rows onto its ring with it, so changing it moves recorded rows. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the given
    mean; used for think times and latency jitter. *)
