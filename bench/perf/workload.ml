(* The benchmark's workloads.  Each one is a SmallBank, TPC-C or BlindW
   history generated from the benchmark seed by 8 closed-loop clients in
   minidb's simulated time (not threads or connections), verified against
   postgresql/SR.  Sizes keep one end-to-end repetition near one second
   on a 2-core machine, so a 20-second run holds about 15 to 35 repetitions. *)

module H = Leopard_harness

type kind =
  | Check  (** [leopard --check] on the recorded history *)
  | Check_ckpt  (** the same, writing checkpoint frames at every cut *)
  | Online  (** [Harness.Online.run] over a lossy collection path *)

type t = {
  name : string;
  spec : string;  (** {!Leopard_workload.Catalog} name *)
  txns : int;
  kind : kind;
  why : string;
}

let clients = 8
let gc_watermark = 20_000
let max_stall_ns = 2_000_000
let dbms = "postgresql"
let level = "SR"
let il = Leopard.Il_profile.postgresql_serializable

let all =
  [
    {
      name = "check-smallbank";
      spec = "smallbank";
      txns = 40_000;
      kind = Check;
      why =
        "short transactions with few overlapping dependencies: decode and \
         sort take their largest share here and the checker costs least \
         per trace";
    };
    {
      name = "check-tpcc";
      spec = "tpcc";
      txns = 5_000;
      kind = Check;
      why =
        "mostly aborted transactions with wide read intervals: CR candidate \
         and deferred-read work dominates and grows superlinearly, so a \
         checker hot-path change shows here and a codec change barely does";
    };
    {
      name = "check-blindw-ckpt";
      spec = "blindw-rw+";
      txns = 5_000;
      kind = Check_ckpt;
      why =
        "uniquely written values make every dependency deducible; the only \
         workload whose command writes checkpoint frames, so truncation, \
         encoding and checkpoint writes are on its path";
    };
    {
      name = "online-lossy";
      spec = "smallbank";
      txns = 15_000;
      kind = Online;
      why =
        "the only workload through the live pipeline and the degradation \
         channels; once traces are lost truncation stops folding, so live \
         state and time grow with the history";
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Chaos seed 3: 0.1% of traces dropped, 1% duplicated, 2% delayed by up
   to 300 us of simulated time.  The expected verdict is Inconclusive. *)
let chaos =
  H.Chaos.config ~seed:3 ~drop_prob:0.001 ~dup_prob:0.01 ~delay_prob:0.02
    ~max_delay_ns:300_000 ()

let config ?chaos w ~seed =
  let spec =
    match Leopard_workload.Catalog.find w.spec with
    | Some spec -> spec
    | None -> invalid_arg ("unknown workload spec " ^ w.spec)
  in
  H.Run.config ~clients ~seed ?chaos ~spec ~profile:Minidb.Profile.postgresql
    ~level:Minidb.Isolation.Serializable ~stop:(H.Run.Txn_count w.txns) ()

(* What the live monitor runs: the history's configuration, behind the
   lossy collection path for [online-lossy]. *)
let monitored w ~seed =
  match w.kind with
  | Online -> config ~chaos w ~seed
  | Check | Check_ckpt -> config w ~seed

(* The stall bound is a chaos-mode setting in the CLI, so only the lossy
   workload gets it. *)
let online w ~seed =
  match w.kind with
  | Online -> H.Online.run ~max_stall_ns ~gc_watermark ~il (monitored w ~seed)
  | Check | Check_ckpt -> H.Online.run ~gc_watermark ~il (monitored w ~seed)

(* The benchmark's set-up: generate the history and record it exactly as
   [leopard --record] does.  Returns (traces, committed transactions). *)
let setup w ~seed ~path =
  let outcome = H.Run.execute (config w ~seed) in
  let traces = H.Run.all_traces_sorted outcome in
  Leopard_trace.Codec.save_ext ~path ~epochs:[] traces;
  (List.length traces, outcome.H.Run.commits)

let expected_exit w =
  match w.kind with Check | Check_ckpt -> 0 | Online -> 3

let cli_args w ~input ~ckpt =
  [
    "--check"; input; "-d"; dbms; "-i"; level; "--gc-watermark";
    string_of_int gc_watermark;
  ]
  @ match w.kind with
    | Check_ckpt -> [ "--check-checkpoint"; ckpt ]
    | Check | Online -> []
