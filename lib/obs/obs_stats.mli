(** The one counting plane of the struct-of-arrays kernel.

    The event bus ({!Obs}) materializes one structured event per phenomenon,
    which is exactly what the zero-allocation kernel was built to avoid
    paying for; events feed traces and post-mortems only, and every count
    lives here.  An accumulator is a preallocated record of flat ints that
    [Engine.run] writes into with plain stores — per-channel
    busy/owned/acquisition/wait counters, head-of-line blocking attribution,
    a fixed-bucket latency histogram, per-phase work counters, and the
    recovery tallies (outcomes, aborts by reason, retries, gave-up,
    detections, victims, fault events by kind) bumped at the cold sites
    that emit the matching events.  Stats are on for a run exactly when the
    caller passes an accumulator ([?stats]).  The steady cycle stays
    allocation-free with stats on; with stats off the kernel pays a
    never-taken branch per accumulation site.

    Accumulators are single-domain values (plain ints, no atomics): give
    each run its own [t] and combine per-run accumulators with {!merge} in
    canonical task-index order ({!Wr_pool.map_reduce}) — the merged result
    is then byte-identical at any domain count.  The record is exposed so
    the kernel's accumulation sweep can write fields directly. *)

type t = {
  st_nchan : int;  (** channel count the per-channel rows are sized for *)
  (* -- per-channel accumulators, indexed by channel id -- *)
  st_owned : int array;  (** cycles the channel ended owned by some message *)
  st_busy : int array;  (** cycles the channel ended with >= 1 buffered flit *)
  st_acquired : int array;  (** successful acquisitions (awards/claims) *)
  st_waited : int array;  (** waiter-cycles spent blocked on this channel *)
  st_hol : int array;
      (** waiter-cycles attributed to this channel as the {e head} of the
          wait chain: from each blocked message, follow wanted-channel ->
          owner -> its wanted channel until a non-waiting owner (or a free
          channel, or a chain step cap) and charge the final channel.  The
          top entries are the head-of-line blockers of the run. *)
  (* -- injection-to-delivery latency, fixed power-of-two buckets -- *)
  st_lat_counts : int array;
      (** one slot per {!lat_bounds} entry plus the overflow slot *)
  mutable st_lat_sum : int;
  mutable st_lat_max : int;
  mutable st_delivered : int;
  mutable st_blocked : int;  (** total waiter-cycles (sum of [st_waited]) *)
  mutable st_runs : int;
  mutable st_cycles : int;
  (* -- per-phase work counters (messages scanned, a cost proxy) -- *)
  mutable st_ph_arb : int;  (** oblivious arbitration registrations *)
  mutable st_ph_claim : int;  (** adaptive claimants sorted and served *)
  mutable st_ph_advance : int;  (** movement-sweep message visits *)
  mutable st_ph_fault : int;  (** fault-sweep message visits *)
  mutable st_ph_detect : int;  (** detector ticks *)
  st_disc_runs : int array;
      (** runs per switching discipline, slots in {!disciplines} order *)
  st_classes : int array;
      (** deadlock outcomes per Stramaglia-Keiren-Zantema class, slots in
          {!classes} order *)
  st_outcomes : int array;  (** finished runs per outcome, slots in {!outcomes} order *)
  st_aborts : int array;  (** recovery aborts per reason, slots in {!abort_reasons} order *)
  mutable st_retries : int;  (** messages rescheduled after an abort *)
  mutable st_gave_up : int;
      (** messages abandoned: dropped without recovery, or out of retries
          (or of degraded routes) *)
  mutable st_detections : int;  (** wait-for knots the online detector confirmed *)
  mutable st_victims : int;  (** knot members aborted as deadlock victims *)
  st_faults : int array;
      (** fault-plan events per kind, slots in {!fault_kinds} order: the
          plan's failures, stalls and drops are counted at run start, a
          drop again as ["drop-fired"] when it kills its message *)
}

val disciplines : string array
(** Fixed slot labels for [st_disc_runs]:
    [|"wormhole"; "virtual-cut-through"; "store-and-forward"|]. *)

val classes : string array
(** Fixed slot labels for [st_classes]: [|"global"; "local"; "weak"|]. *)

val outcomes : string array
(** Fixed slot labels for [st_outcomes], the [Engine.outcome_string]
    values: [|"all-delivered"; "cutoff"; "deadlock"; "recovered"|]. *)

val abort_reasons : string array
(** Fixed slot labels for [st_aborts]: [|"deadlock"; "drop"; "watchdog"|]. *)

val fault_kinds : string array
(** Fixed slot labels for [st_faults], the {!Obs_event.fault_kind_string}
    values: [|"drop"; "drop-fired"; "failure"; "stall"|]. *)

val lat_bounds : int array
(** Latency histogram upper bounds, in cycles: powers of two 1..4096.
    Shared by every accumulator so {!merge} is slot-wise addition. *)

val create : nchan:int -> t
(** A zeroed accumulator for an [nchan]-channel topology.  The only
    allocation of a stats-on run: everything after this is int stores. *)

val reset : t -> unit

val merge : into:t -> t -> unit
(** Slot-wise addition of [src] into [into] ([st_lat_max] by max).  Merging
    per-run accumulators in task-index order is the canonical reduction
    that keeps campaign stats byte-identical at any domain count.
    @raise Invalid_argument when the two accumulators' [st_nchan] differ. *)

val none : t
(** A shared zero-channel accumulator, never written: the kernel binds it
    when stats are off so the hot path needs no option match per site. *)

val observe_latency : t -> int -> unit
(** Record one delivery latency (bucket bump + sum + max + delivered). *)

(* -- derived quantities ---------------------------------------------- *)

val utilization : t -> int -> float
(** [st_busy.(c) / st_cycles] (0 when no cycles recorded). *)

val percentile : t -> float -> int
(** [percentile t q] for [q] in [0..100]: the smallest histogram bound
    whose cumulative count reaches [q]% of deliveries — an upper bound,
    as fixed-bucket histograms resolve; the overflow bucket reports the
    exact [st_lat_max].  0 when nothing was delivered. *)

val top_blocking : ?k:int -> t -> (int * int) list
(** The [k] (default 3) channels with the largest head-of-line blocking
    attribution, as [(channel, hol_cycles)] sorted descending (index
    ascending on ties), zero entries omitted. *)

(* -- renderers (byte-deterministic whenever the values are) ----------- *)

val to_prometheus : ?topo:Topology.t -> t -> string
(** Prometheus text through {!Obs_prom.render}: [wormhole_stats_*]
    families in name order, cumulative histogram buckets + [_sum] +
    [_count].  Per-channel families emit one series per channel with any
    nonzero counter, labelled [channel="name"] (channel ids without
    [topo]); labelled rows emit every slot in slot order. *)

val to_json : ?topo:Topology.t -> t -> string
(** One-object JSON document, schema [wormhole-stats/1]. *)

val heatmap : ?width:int -> ?topo:Topology.t -> t -> string
(** ASCII per-channel utilization heatmap in [Obs_timeline] style: one row
    per active channel (index order), a [width]-column (default 40) bar of
    the channel's busy fraction, and the utilization/acquisition/wait/HoL
    numbers.  Empty string when no channel saw traffic. *)

val summary : ?top:int -> ?topo:Topology.t -> t -> string
(** Percentile summary table: p50/p90/p99/max latency, deliveries, runs,
    cycles, max channel utilization, blocked cycles, and the [top]
    (default 3) head-of-line blocking channels. *)
