(** Crash-safe checkpoints — the one framed container.

    A checkpoint file binds one run (header fingerprint) to a sequence
    of {e frames} written atomically-enough: begin marker, per-line
    checksums, end marker, one [flush].  A checker checkpoint writes one
    complete [Checker.encode] snapshot per frame and resumes from the
    newest; a campaign checkpoint writes one completed cell per frame
    and resumes all of them.  A process killed mid-frame leaves a torn
    tail, and the loader keeps every complete frame before it, so
    resume loses at most the frame being written and never trusts a
    damaged byte.

    The file is an optimization, never an authority:

    - missing file: fresh start, silent (first run, not damage);
    - empty file, unrecognized header, foreign fingerprint: ignore the
      whole file, warn once;
    - torn or corrupt frame (bad marker, checksum mismatch, wrong line
      count, failed unescape), or a frame its reader rejects: keep the
      frames before it, drop it and everything after it, warn once.

    Payload lines are individually [String.escaped] and checksummed
    (FNV-1a), so arbitrary bytes round-trip and single-byte damage is
    detected per line. *)

val fingerprint : string list -> string
(** FNV-1a digest of the given identity components (checkpoint kind,
    profile name, checker flags, input identity…), printed as 16 hex
    digits.  Binds a checkpoint file to the exact run that wrote it:
    resuming under any other configuration ignores the file rather than
    corrupting the verdict. *)

type writer

val writer : path:string -> fingerprint:string -> writer
(** Create or truncate [path] and write the header.  A checkpoint is
    rewritten from scratch by each run — frames within one run append.
    Raises [Sys_error] if [path] cannot be opened for writing. *)

val append : writer -> string list -> unit
(** Write one complete frame and flush. *)

val close : writer -> unit

val load :
  path:string ->
  fingerprint:string ->
  (string list -> (unit, string) result) ->
  string option
(** [load ~path ~fingerprint accept] passes the payload of each frame
    that validates end-to-end (unescaped lines, in written order) to
    [accept], oldest first, and returns the one warning to surface, if
    any.  The scan stops at the first damaged frame, or at the first
    frame [accept] rejects with [Error why]: the frames before it stay
    accepted and the warning names the reason.  A missing file accepts
    nothing and returns [None]. *)
