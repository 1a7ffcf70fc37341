(** Crash-safe campaign checkpoints: completed cells on disk, so an
    interrupted sweep resumes re-running only the incomplete ones.

    Each completed cell is one frame of the checkpoint container
    ([Leopard_trace.Ckpt]), whose damage discipline applies unchanged.
    On top of it, [load] rejects a frame whose index is outside the
    grid or already seen, or whose outcome record does not decode; a
    rejected frame counts as damage.  A cell a damaged checkpoint
    "loses" is simply re-run; determinism makes the re-run free. *)

val writer : path:string -> Grid.t -> Leopard_trace.Ckpt.writer
(** Create or truncate [path], bound to the grid: the fingerprint names
    the campaign kind, the grid's fingerprint and its cell count.
    Raises [Sys_error] if [path] cannot be opened for writing. *)

val append : Leopard_trace.Ckpt.writer -> index:int -> Runner.outcome -> unit
(** Append one completed cell as one frame and flush.  Callers running
    cells on multiple domains must serialize appends (the orchestrator
    holds a mutex); cells may land in any order. *)

val load : path:string -> Grid.t -> (int * Runner.outcome) list * string option
(** The cells of every frame accepted before the first damaged or
    rejected one, in file order, plus the container's one-line warning.
    A missing file is a silent fresh start ([[], None]).  Floats
    round-trip exactly (bit-pattern encoding), so a resumed campaign's
    results DB is byte-identical to an uninterrupted run's. *)
