(** Cycle-accurate flit-level wormhole simulation: the single switching
    kernel.  The model (Section 3 of the paper):

    - each unidirectional channel has a FIFO flit queue of configurable
      capacity (default one flit) with {e atomic buffer allocation}
      (assumption 4): a queue holds flits of at most one message, and it
      must transmit the last flit of the current message before it may
      accept the header of the next -- release happens at the end of a
      cycle, acquisition no earlier than the next cycle;
    - flits advance at most one hop per cycle; the header acquires channels,
      data flits follow the header's path (wormhole switching);
    - a header that cannot proceed keeps all channels the message occupies
      (no abort/recovery -- unless an explicit {!recovery} policy is
      configured, which is an extension beyond the paper's model);
    - the destination consumes one flit per cycle once the header arrives
      (assumption 2);
    - arbitration among simultaneous requests for the same channel is
      starvation-free (assumption 5): earlier waiters win, and ties among
      same-cycle requests are broken by an explicit priority order so the
      adversary of the paper's proofs ("the message that can lead to
      deadlock acquires the channel") can be realized by sweeping
      priorities;
    - per-message adversarial holds realize the bounded clock skew /
      prolonged-delay discussion of Sections 3 and 6.

    Two entry points differ only in how the header selects its next
    channel:

    - {!run} ({e oblivious}): the path is fixed up front by the routing
      function; the header waits for exactly that channel, and
      wait-seniority arbitration awards each contended channel to the most
      senior waiter (ties by the priority table);
    - {!run_adaptive}: each cycle the header claims the first {e free}
      channel among the routing function's permitted options, claimants
      ordered by waiting time and then the priority table.  An oblivious
      routing lifted with {!Adaptive.of_oblivious} is the singleton case
      and behaves identically to {!run} (QCheck-checked in [test_qcheck]'s
      differential suite).

    Everything else -- fault application, watchdog/backoff recovery
    (including [recovery.reroute], honored by both), online deadlock
    detection ({!trigger} [Detect]), the sanitizer sweep (E101-E106), and
    [Obs] emission -- is shared.  Mode-specific semantics kept
    intentionally (see DESIGN.md section 12): adaptive runs ignore
    per-message adversarial holds ([ms_holds]) and [config.discipline];
    validation messages name the entry point the caller used; sanitizer
    messages say "path position" (oblivious, fixed route) vs "hop"
    (adaptive, carved route); adaptive reroute pins the remaining route,
    making the message effectively oblivious for its retries.

    Because the engine is deterministic, a run is a pure function of
    (routing, schedule, config). *)

type arbitration =
  | Fifo  (** earlier waiters first; same-cycle ties by schedule order *)
  | Priority of string list
      (** same-cycle ties broken by this label order (earlier = wins);
          labels absent from the list rank last, in schedule order *)

(** Switching discipline the flit-advance/acquire/release machinery runs
    under (DESIGN.md section 17).  Oblivious mode only; adaptive runs
    always switch wormhole. *)
type discipline =
  | Wormhole
      (** flits advance as soon as possible; a blocked worm spans many
          channels (the paper's model) *)
  | Virtual_cut_through
      (** headers advance as eagerly as wormhole, but the per-channel
          capacity column is provisioned for the longest scheduled packet:
          a blocked message compresses into its head channel's buffer and
          the release-after-tail pipeline then frees every upstream
          channel, so only the channel under the header stays
          resource-locked (cut-through = wormhole + whole-packet buffers
          in this channel-queue model) *)
  | Store_and_forward
      (** the header may only advance once the whole packet is buffered in
          its current channel (requires [buffer_capacity] at least the
          longest message); the classic pre-wormhole discipline *)

val discipline_string : discipline -> string
(** ["wormhole"], ["virtual-cut-through"], ["store-and-forward"]. *)

val discipline_of_string : string -> discipline option
(** Inverse of {!discipline_string}; also accepts ["wh"], ["vct"],
    ["saf"]. *)

val set_discipline_override : discipline option -> unit
(** Process-wide discipline override for matrix sweeps (CI, EXP-SW1):
    while set, every oblivious run switches under the given discipline
    regardless of its [config.discipline]: the run's config is passed
    through {!provision}, so under a [Store_and_forward] override the
    effective buffer capacity is raised to the longest scheduled message
    and wormhole-provisioned campaigns stay runnable; an explicit SAF
    config still validates strictly.  [None] restores
    per-config behavior.  Same process-wide-knob precedent as
    {!Obs.install} and [Sanitizer.install]. *)

val discipline_override : unit -> discipline option

type trigger =
  | Watchdog of int
      (** abort any message that goes this many cycles without progress
          (no flit moved, no channel acquired); >= 1.  Blunt: every
          member of a deadlock knot times out and is drained. *)
  | Detect of Obs_detect.config
      (** online wait-for cycle detection: at the end of every cycle the
          kernel runs {!Obs_detect.find_cycles} over its own wait tables
          (each message's advertised edge to the wanted channel's owner)
          and confirms a cycle as a knot once [bound] cycles have passed
          since its last member activity and the last planned stall
          ({!Obs_detect.due}); only the policy-chosen victim is aborted,
          so the rest of the knot unwinds through the freed channels.
          [backstop] keeps a watchdog sweep alive for acyclic wedges
          (e.g. a worm parked behind a failed link), which have no wait
          cycle to detect. *)

type recovery = {
  trigger : trigger;
      (** what decides a message must be aborted; see {!trigger} *)
  retry_limit : int;
      (** maximum aborts per message; one more abort abandons it; >= 0 *)
  backoff : int;
      (** re-injection delay after the first abort; doubles per retry
          (exponential backoff); >= 1 *)
  reroute : Routing.t option;
      (** routing used to recompute an aborted message's path, typically a
          {!Routing.avoiding} wrapper around the failed channels that the
          caller has re-certified (see [Degrade.reroute]); [None] retries
          on the original path (oblivious) or with full adaptive freedom
          (adaptive).  In adaptive mode the recomputed path is {e pinned}:
          the retried header claims exactly the reroute's channels. *)
}

val default_recovery : recovery
(** [Watchdog 64], retry_limit 4, backoff 8, no reroute. *)

type config = {
  buffer_capacity : int;  (** flits per channel queue; >= 1 *)
  arbitration : arbitration;
  discipline : discipline;
      (** switching discipline; [Wormhole] with [buffer_capacity >= max
          length] behaves as [Virtual_cut_through], and intermediate
          capacities are the paper's "buffered wormhole" *)
  max_cycles : int;  (** safety cutoff; runs are expected to finish earlier *)
  faults : Fault.plan;  (** injected failures/stalls/drops; default none *)
  recovery : recovery option;
      (** [None] preserves the paper's model exactly: a blocked message
          holds its channels forever and deadlocks are reported with a
          witness.  [Some r] enables watchdog abort-and-drain with
          re-injection. *)
}

val default_config : config
(** capacity 1, FIFO, wormhole, 100_000 cycles, no faults, no recovery. *)

val provision : discipline -> Schedule.t -> config -> config
(** [provision d sched config] switches [config] to discipline [d].  For
    [Store_and_forward] it also raises [buffer_capacity] to the longest
    message of [sched] (whole-packet buffers), so a wormhole-provisioned
    workload stays runnable; the other disciplines keep the capacity.  The
    one SAF provisioning rule: the {!set_discipline_override} path applies
    it to every oblivious run. *)

type message_result = {
  r_label : string;
  r_injected_at : int option;  (** cycle the header entered the network *)
  r_delivered_at : int option;  (** cycle the tail flit was consumed *)
}

type blocked_info = {
  b_label : string;
  b_wants : Topology.channel list;
      (** channels the header is blocked on: a singleton in oblivious mode
          (the fixed route's next channel), the full option list in
          adaptive mode *)
  b_holder : string option;
      (** owner of the first wanted channel, if any *)
}

(** The Stramaglia-Keiren-Zantema taxonomy, re-exported from
    {!Obs_detect.deadlock_class} (the dependency-order home shared with
    the detector and the post-mortem). *)
type deadlock_class = Obs_detect.deadlock_class = Global | Local | Weak

val deadlock_class_string : deadlock_class -> string
(** ["global"], ["local"], ["weak"]. *)

type deadlock_info = {
  d_cycle : int;  (** cycle at which the state became permanently blocked *)
  d_class : deadlock_class;
      (** classification of the terminal blocked state: [Weak] when
          [d_wait_cycle] is empty (acyclic wedge -- a drain order exists;
          only faults produce this), else [Local] when some message was
          delivered, else [Global] (the paper's Deadlock) *)
  d_blocked : blocked_info list;
  d_wait_cycle : string list;  (** labels of one cycle in the wait-for graph *)
  d_occupancy : (Topology.channel * string * int) list;
      (** channel, owning message, buffered flit count *)
}

type fate =
  | Delivered  (** reached its destination (possibly after retries) *)
  | Dropped  (** killed at the source by a {!Fault.Message_drop} with recovery off *)
  | Gave_up
      (** abandoned: retry cap exhausted, or no route around the failed
          channels exists *)

type retry_stat = {
  t_label : string;
  t_retries : int;
      (** aborts (watchdog, drop, or deadlock victim) this message went
          through *)
  t_fate : fate;
}

type outcome =
  | All_delivered of { finished_at : int; messages : message_result list }
  | Deadlock of deadlock_info
  | Cutoff of { at : int; messages : message_result list }
      (** [max_cycles] reached with traffic still moving (no deadlock) *)
  | Recovered of {
      finished_at : int;
      messages : message_result list;
      stats : retry_stat list;
    }
      (** the run was perturbed by faults or recovery actions (aborts,
          drops, retries) yet terminated: every message was delivered,
          dropped, or abandoned within its retry budget.  [All_delivered]
          is still returned when faults/recovery were configured but never
          fired. *)

type snapshot = {
  s_cycle : int;
  s_occupancy : (Topology.channel * string * int) list;
      (** channel, owning message, buffered flits (only non-empty queues) *)
  s_waiting : (string * Topology.channel * string option) list;
      (** blocked message, wanted channel (first option when adaptive),
          current holder *)
  s_moved : bool;  (** something advanced this cycle *)
}
(** The observable network state at the end of one cycle, as passed to a
    [?probe]. *)

val run :
  ?config:config ->
  ?probe:(snapshot -> unit) ->
  ?sanitizer:Sanitizer.t ->
  ?obs:Obs.sink ->
  ?stats:Obs_stats.t ->
  Routing.t ->
  Schedule.t ->
  outcome
(** [run rt sched] simulates [sched] under the oblivious routing [rt] until
    every message is delivered (or, under faults/recovery, dropped or
    abandoned), the network is permanently blocked, or the cycle cutoff
    fires.

    [probe] is called with the network {!snapshot} at the end of every
    cycle.  It is pure observation; the kernel pin digest ([test_kernel])
    and the probe tests in [test_extensions] rely on it.  Prefer an
    [Obs.recorder] sink plus [Obs.Timeline.render] for timelines.

    [stats] accumulates counters-first telemetry into a preallocated
    {!Obs_stats.t} (per-channel utilization and blocking, latency histogram,
    per-phase work) with plain int stores -- the steady cycle allocates
    nothing even with stats on.  Stats are on iff [stats] is given; without
    it the stats path costs a never-taken branch per accumulation site.
    Like [obs], stats are pure observation.
    @raise Invalid_argument when [stats] is sized for a different channel
    count than the routing's topology.

    [obs] attaches a structured-event sink for this run (falling back to the
    process-wide {!Obs.install}ed one): run start/end, channel
    acquire/release, wait-for edge add/drop, flit movements, deliveries,
    aborts/retries, and fault firings; the [Run_start] event reports the
    engine as ["oblivious"].  With no sink the event path costs one atomic
    read per run.

    [sanitizer] arms the per-cycle invariant sweep (flit conservation,
    buffer atomicity, the flit window, wait-for consistency, recovery
    monotonicity, wait-edge/hold consistency -- codes E101-E106), falling
    back to the process-wide sanitizer installed via {!Sanitizer.install}
    (or the [WORMHOLE_SANITIZE] environment variable).

    [obs], [stats] and [sanitizer] are pure observation: the run takes
    identical decisions with any of them attached.  That includes a
    [Detect] recovery trigger: the detector reads the kernel's own wait
    tables, so it needs no events, and a detecting run without a sink
    builds none.

    Fault semantics: a channel that is down ({!Fault.down}) accepts no new
    acquisition and moves no flits in or out; a header waits for its (down)
    fixed channel, keeping its seniority.  The watchdog (or, under
    [Detect], the backstop and the detector's victim choice) aborts wedged
    messages; aborting releases and drains every held channel, then
    re-injects after exponential backoff -- along [recovery.reroute] if
    provided -- up to [retry_limit] times.  Detection emits
    [Deadlock_detected] / [Victim_aborted] events, and victim aborts carry
    reason ["deadlock"].  With [recovery = None] fault-blocked traffic is
    reported as [Deadlock] (permanently blocked), exactly like a protocol
    deadlock.

    @raise Invalid_argument (prefixed ["Engine.run: "]) when
    {!Schedule.validate} rejects the schedule or the config is malformed
    (including a [recovery.reroute] built on a different topology). *)

val run_adaptive :
  ?config:config ->
  ?probe:(snapshot -> unit) ->
  ?sanitizer:Sanitizer.t ->
  ?obs:Obs.sink ->
  ?stats:Obs_stats.t ->
  Adaptive.t ->
  Schedule.t ->
  outcome
(** [run_adaptive ad sched] is {!run} with the header choosing dynamically
    among [ad]'s permitted output channels; data flits follow the path the
    header actually took.  Deadlock witnesses carry the same
    {!deadlock_info}, with [b_wants] listing the full option set the header
    was blocked on.  Restricted to adaptive functions whose choices never
    revisit a channel (every minimal algorithm qualifies);
    {!Adaptive.validate} should be checked beforehand.

    Every optional argument behaves as in {!run}, except that [Run_start]
    reports the engine as ["adaptive"], and a blocked header's wait-for
    edge (and its [stats] wait/HoL attribution) follows its first
    (preferred) option.

    Faults: a header is simply never offered a down option, so adaptive
    routing steers around faults even without a reroute function.  When
    [config.recovery.reroute] {e is} provided, an aborted message's
    recomputed path is pinned: the retried header claims exactly the
    reroute's channels (it no longer explores).  Wormlint's W044 flags
    configurations that set a reroute expecting it to be ignored.

    [config.discipline] and per-message adversarial holds ([ms_holds]) are
    ignored: adaptive runs always switch wormhole.

    @raise Invalid_argument (prefixed ["Engine.run_adaptive: "]) on
    malformed schedules or configs. *)

val is_deadlock : outcome -> bool

val outcome_string : outcome -> string
(** Stable one-word form: ["all-delivered"], ["deadlock"], ["cutoff"] or
    ["recovered"] (matches [Obs_event.Run_end]). *)

val pp_fate : Format.formatter -> fate -> unit

val pp_outcome : Topology.t -> Format.formatter -> outcome -> unit
(** Singleton [b_wants] entries render as ["m waits for c held by h"]
    (the oblivious witness format, unchanged); multi-option entries as
    ["m blocked on {c1, c2}"]. *)

val run_count : unit -> int
(** Total simulation runs started in this process (atomic: includes runs on
    helper domains, and {!run_adaptive}'s runs).  Used for runs/sec
    throughput reporting in the campaign timing table. *)

val cancelled_count : unit -> int
(** Runs whose results a parallel sweep discarded as cancelled speculative
    work (tasks past the canonical winner).  [run_count () -
    cancelled_count ()] is the exact number of runs that contributed to
    reported results. *)

val note_runs_cancelled : int -> unit
(** Report [n] runs as cancelled speculative work.  Called by the search
    layer after each sweep's canonical reduce. *)
