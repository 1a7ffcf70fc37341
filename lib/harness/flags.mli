(** The run command's workload and fault-plane flags: the one mapping
    from flag values to a {!Run.config}.

    The cmdliner definitions behind {!term} are the only home of every
    default.  The CLI's default command evaluates {!term}; the campaign
    runner evaluates {!parse} over a cell's own reproducer line, so the
    line a campaign prints is the definition of the cell it ran.  The
    CLI's own flags ([--check], [--record], checkpointing, reporting)
    stay with it.

    Nothing here exits: every failure is a {!Cli_validate.error} (or
    cmdliner's diagnostic, for {!parse}) the caller maps to exit 2. *)

type t
(** Raw flag values, as parsed; not yet validated. *)

val term : t Cmdliner.Term.t

val parse : string list -> (t, string) result
(** Evaluate {!term} over [args] (without the program name), ignoring
    the environment.  [Error] carries cmdliner's diagnostic.  Main
    domain only: cmdliner writes through [Format.str_formatter], which
    on any other domain is still the main domain's formatter, so an
    evaluation there would leave text in the main domain's string
    buffer.  Raises [Invalid_argument] off the main domain. *)

val validate : t -> Cli_validate.error option
(** The first invalid value in flag order: numbers, schedules and
    windows, engine and plane fault names, [--repl-ack], and the
    follower and shard indices of [--repl-lag], [--shard-partition],
    [--shard-crash] and [--shard-failover-at].  Every value is checked
    whether or not its plane is on. *)

val config :
  t -> (Run.config * Leopard.Il_profile.t, Cli_validate.error) result
(** {!validate}, then resolve the workload, DBMS profile and claimed
    level, check the plane-composition matrix and build the run config
    with the verifier profile for the claim. *)

val verifier : t -> (Leopard.Il_profile.t, Cli_validate.error) result
(** The verifier profile for the claimed [--dbms]/[--isolation] alone,
    for checking a recorded trace file. *)

val dbms : t -> string
(** The [--dbms] value as given. *)

val chaos_rates : t -> float list
(** The four [--chaos-*] probabilities, for {!Cli_validate.recording}. *)
