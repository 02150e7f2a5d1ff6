(** The paper's evaluation artifacts as runnable experiments.

    Each function regenerates one artifact (figure, theorem, corollary or
    the Section-6 family), prints the full report to the formatter, and
    returns one summary row per claim checked so the test suite and
    EXPERIMENTS.md can assert the paper-vs-measured agreement.

    [quick] trims the search dimensions (fewer candidate lengths, fewer
    arbitration permutations) so the suite finishes in seconds; the default
    full spaces are the ones quoted in EXPERIMENTS.md. *)

type row = {
  x_id : string;  (** e.g. "F1/cdg-cyclic" *)
  x_claim : string;  (** what the paper says *)
  x_measured : string;  (** what we observed *)
  x_ok : bool;  (** measured matches the claim *)
}

val exp_f1 : ?quick:bool -> Format.formatter -> row list
(** Figure 1 / Theorem 1: the Cyclic Dependency algorithm has a cyclic CDG
    (exactly one elementary cycle) yet no adversarial schedule deadlocks. *)

val exp_t2 : ?quick:bool -> Format.formatter -> row list
(** Theorem 2 / Corollary 1: on a unidirectional ring with clockwise
    routing every shared channel is within the cycle; the classifier calls
    the cycle reachable and the search produces a deadlock witness. *)

val exp_corollaries : ?quick:bool -> Format.formatter -> row list
(** Corollaries 1-3 over the algorithm suite: suffix-closed / coherent
    algorithms never have unreachable configurations -- their CDG cycles
    (when any) are real deadlock risks; the CD algorithm is the
    non-suffix-closed exception with a false resource cycle. *)

val exp_t3 : ?quick:bool -> Format.formatter -> row list
(** Theorem 3: the minimal algorithms of the suite admit no unreachable
    cycles; the CD algorithm is necessarily nonminimal. *)

val exp_t4 : ?quick:bool -> Format.formatter -> row list
(** Figure 2 / Theorem 4: two messages sharing a channel outside the cycle
    always deadlock; prints the witness schedule. *)

val exp_t5 : ?quick:bool -> Format.formatter -> row list
(** Figure 3 (a)-(f) / Theorem 5: per sub-figure, the eight-condition
    checker's verdict against the exhaustive search and the paper's claim. *)

val exp_g : ?quick:bool -> ?max_p:int -> Format.formatter -> row list
(** Section 6: [family p] is deadlock-free without adversarial delay, and
    the minimum in-network delay that creates a deadlock grows with [p],
    for [p] = 1..[max_p].  [G/safe] fails without a measured member and
    [G/growth] fails with fewer than two, so a [max_p] below 2 can never
    pass vacuously. *)

val exp_s1 : ?quick:bool -> Format.formatter -> row list
(** Substrate validation (extension): torus e-cube without virtual channels
    deadlocks under permutation traffic; with dateline VCs, and on the mesh,
    it never does. *)

val exp_s2 : ?quick:bool -> Format.formatter -> row list
(** Substrate performance (extension): 8x8 mesh XY latency and throughput
    versus offered load under uniform and transpose traffic. *)

val exp_mfm : ?quick:bool -> Format.formatter -> row list
(** Section-2 discussion, mechanized: the Lin-McKinley-Ni message flow
    model (deadlock-immune channels) proves the acyclic suite deadlock-free
    but gets stuck on the Figure-1 ring -- exactly the incompleteness the
    paper points out for algorithms with unreachable cycles. *)

val exp_a : ?quick:bool -> Format.formatter -> row list
(** Section-7 outlook, mechanized: unrestricted adaptive routing has a
    cyclic adaptive CDG, while Duato's escape-channel condition (connected
    escape subfunction + acyclic extended CDG) certifies the two-class mesh
    design, confirmed under adaptive-engine stress traffic. *)

val exp_sw : ?quick:bool -> Format.formatter -> row list
(** Section-1 discussion, mechanized: the switching continuum.  Latency
    ordering wormhole = cut-through < store-and-forward on an uncontended
    line; cut-through buffering neither rescues a cyclic-CDG substrate nor
    breaks the Figure-1 false resource cycle. *)

val exp_sw1 : ?quick:bool -> Format.formatter -> row list
(** Discipline-matrix extension (EXP-SW1): paper figure networks plus
    mesh/torus/hypercube substrates rerun under all three switching
    disciplines, with every deadlock classified global/local/weak.  The
    Figure-2 witness verdict {e flips} under cut-through and
    store-and-forward (the deadlock needs a worm stretched across the
    shared channel), while true channel cycles (ring tornado, torus
    wrap-around) deadlock under every discipline; a drained early message
    demonstrates a local deadlock and a fault-parked worm a weak one.
    Suspends any process-wide discipline override for the duration --
    every run pins its own [config.discipline]. *)

val exp_mc : ?quick:bool -> Format.formatter -> row list
(** Exhaustive state-space verification of every figure network: the model
    checker explores all injection timings and arbitration choices (one-flit
    buffers, the swept length window) and must agree with the paper on every
    verdict; with the unbounded-delay adversary enabled, Figure 1 deadlocks,
    matching Section 6. *)

val exp_fault : ?quick:bool -> ?detect:bool -> Format.formatter -> row list
(** Robustness extension: seeded fault campaigns on the figure networks
    terminate deterministically with bounded retries under recovery; with
    recovery off a permanent failure reports as a deadlock; a failed mesh
    channel is routed around with a re-certified degraded algorithm.
    [detect] (default false) swaps the plain watchdog for online deadlock
    detection with the same no-progress backstop; the claim verdicts must
    be identical either way. *)

val exp_detect : ?quick:bool -> Format.formatter -> row list
(** Robustness extension (EXP-D1): on the deterministic deadlock workloads
    (the Figure-2 witness and torus tornado traffic) the online detector
    confirms the ground-truth knot within its latency bound, delivers every
    message the watchdog delivers, and aborts strictly fewer messages than
    the watchdog on at least one workload. *)

val exp_lint : ?quick:bool -> Format.formatter -> row list
(** Static-analysis extension: every registered algorithm lints with zero
    E-severity diagnostics, and every seeded defect in the wormlint corpus
    is flagged exactly once by its expected code (with at least 8 distinct
    codes exercised). *)

val exp_synth : ?quick:bool -> Format.formatter -> row list
(** Synthesis extension (EXP-SY1): the routing-existence checker's verdict
    against exhaustive dynamic search.  On every paper figure network a
    routing is synthesized, certified by [Verify] and survives the
    adversarial schedule sweep; on under-provisioned unidirectional rings
    the impossibility witness machine-checks and every member of the
    bounded greedy routing family deadlocks; on pinned random digraphs the
    two verdicts always agree and both occur. *)

val registry :
  ?quick:bool ->
  ?max_p:int ->
  ?detect:bool ->
  unit ->
  (string * (Format.formatter -> row list)) list
(** The campaign's one experiment list, in run order: each name
    (["exp-f1"], ...) with its runner.  [max_p] goes to [exp_g] and [detect]
    to [exp_fault]; every runner gets [quick]. *)

val summary_table : row list -> string
(** Render rows as the EXPERIMENTS.md summary table. *)

(** {1 Campaign record}

    One [run_experiments] campaign: what each experiment claimed and what
    it cost.  Every campaign output renders from this record.  Only the
    wall times (and so [runs_per_s] and the timing table) and the started
    and cancelled run counts depend on the host and the domain count; the
    claim rows and the canonical run tallies are byte-identical at any
    [--domains]. *)

type entry = {
  e_name : string;  (** registry name, e.g. ["exp-f1"] *)
  e_rows : row list;
  e_wall : float;  (** seconds *)
  e_runs : int;  (** engine runs started *)
  e_cancelled : int;
      (** of those, runs a parallel sweep started speculatively and then
          discarded; [e_runs - e_cancelled] is the canonical tally *)
}

type campaign = { c_quick : bool; c_domains : int; c_entries : entry list }

type totals = {
  t_claims : int;
  t_failed : int;
  t_wall : float;
  t_runs : int;
  t_cancelled : int;
  t_canonical : int;  (** [t_runs - t_cancelled] *)
}

val campaign_rows : campaign -> row list
val totals : campaign -> totals

val verdict_lines : campaign -> string
(** One ["claim-id ok|FAIL"] line per claim (the [--verdicts] file). *)

val metrics_text : campaign -> string
(** Prometheus text (the [--metrics] file): [wormhole_campaign_quick],
    claims by status, and canonical engine runs per experiment and in
    total.  Built from canonical quantities only, so byte-identical at any
    [--domains]. *)

val json_text : campaign -> string
(** The [--json] file, schema [wormhole-campaign/1]. *)

val timing_table : campaign -> string
(** Wall time, runs started, runs cancelled and runs/s per experiment,
    with a totals row. *)

val latency_report : ?quick:bool -> Format.formatter -> unit
(** The [run_experiments --latency] section: per-workload latency
    percentiles (p50/p90/p99/max, as histogram upper bounds), delivery
    counts, peak channel utilization and the top head-of-line blocking
    channels, measured by threading an {!Obs_stats.t} through a fixed
    deterministic workload set (the figure-2 designated messages, seeded
    mesh-8x8 Bernoulli traffic, a transpose permutation and the torus
    tornado).  Per-run accumulators merge in task-index order, so the
    section is byte-identical at any [--domains] count. *)
