(** Parse → summarize → link → check → suppress, over files and trees.

    The driver owns everything above a single rule: locating [.ml]
    files (deterministically — directory listings are sorted), parsing
    them with compiler-libs, zone classification (overridable for
    fixtures), the two-phase interprocedural pipeline (per-module
    {!Summary} extraction, then {!Callgraph}-driven {!Race}/{!Taint}
    evaluation), suppression filtering with stale-allow detection
    (S001), and report aggregation.  Every entry point runs that one
    pipeline over every file it is given. *)

type file_result = {
  path : string;
  zone : Zone.t;
  findings : Finding.t list;  (** active findings, in source order *)
  suppressed : int;  (** findings silenced by annotations *)
}

val lint_source :
  ?zone:Zone.t -> path:string -> string -> (file_result, string) result
(** Lint source text directly (the unit-test entry point): the full
    pipeline — including the P rules — on a single-module project.
    [Error] carries a parse diagnostic. *)

val lint_file : ?zone:Zone.t -> string -> (file_result, string) result

type stage_timings = {
  t_parse : float;  (** file reads + parsing *)
  t_syntactic : float;  (** the D/F/E single-file rule pass *)
  t_extract : float;  (** per-module summary extraction *)
  t_graph : float;  (** call-graph construction + fixpoints *)
  t_race : float;  (** P001/P002 evaluation *)
  t_taint : float;  (** P003 evaluation *)
  t_stale : float;  (** suppression filtering + S001 *)
}
(** Time spent per stage, measured with the caller-provided clock
    ([0.0] everywhere when no clock is injected — the analysis itself
    never reads the wall clock, per its own D002). *)

type summary = {
  files : int;
  active : int;
  suppressed_total : int;
  results : file_result list;  (** only files with findings or suppressions *)
  errors : (string * string) list;  (** unparsable files: path, diagnostic *)
  timings : stage_timings;
}

val lint_paths :
  ?zone:Zone.t -> ?clock:(unit -> float) -> string list -> summary
(** Lint a tree: every [.ml] file under the given roots is read, parsed,
    summarized, linked into one call graph, checked and filtered.
    [clock] (e.g. [Util.Clock.cpu]) feeds {!stage_timings}. *)

val pp_summary : summary Fmt.t
(** Human report: one line per finding plus a tail line with totals. *)

val json_summary : summary -> string
(** The whole run as one JSON document (findings array + totals +
    stage timings), the [LINT_report.json] artifact format. *)
