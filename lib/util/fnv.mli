(** FNV-1a, 64-bit — the one non-cryptographic hash behind every
    checksum and fingerprint the repository persists (checker
    checkpoints, campaign checkpoints, campaign grid fingerprints).

    Persisted files compare these digests across runs and versions, so
    the function is frozen: ["" -> cbf29ce484222325],
    ["a" -> af63dc4c8601ec8c]. *)

val hash : string -> int64
(** FNV-1a over the bytes of the string. *)

val hex : string -> string
(** {!hash} as 16 lower-case hex digits. *)
