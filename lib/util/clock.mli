(** The one sanctioned host-clock read (lint rule D002).

    Simulated time drives every trace timestamp, every fault schedule
    and every verdict — those must never touch the host clock, or a
    seeded run stops replaying byte-identically.  The only legitimate
    consumers of real time are *reporting* paths: "verification took
    1.2 s of CPU" in a summary, a benchmark harness.  Routing them all
    through this module makes the exception auditable: the linter bans
    [Sys.time]/[Unix.gettimeofday] everywhere else, so a wall-clock
    read outside this file is a build error, not a code-review catch. *)

val cpu : unit -> float
(** Processor time in seconds ([Sys.time]); subtract two samples for a
    duration.  Reporting only — the value must never reach a trace,
    a schedule or a verdict. *)
