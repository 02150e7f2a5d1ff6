(** Deadlock detection over the message wait-for graph: the detector's
    configuration and result types, victim choice, and the one cycle finder
    every wait-for consumer shares.

    A blocked message wants exactly one channel at a time and a channel has
    exactly one owner, so the graph

      waiter --wants--> channel --held by--> next waiter

    is {e functional} (out-degree at most one per message): every cycle is
    vertex-disjoint from every other, and one walk from each message finds
    them all.  The engine's [Detect] trigger runs {!find_cycles} over its own
    wait tables at the end of every cycle, the run-end deadlock witness
    ([Engine.deadlock_info.d_wait_cycle]) and [Obs_postmortem] run
    {!cycles}; nothing rebuilds the graph from a replayed event stream.

    A wait cycle is only confirmed as a knot ({!due}) once it has been quiet
    for [bound] cycles: worm tails may still cascade forward and release
    the very channel the cycle turns on.  Resolution of a real wait cycle
    necessarily moves a member, so [bound] cycles of member silence over an
    intact cycle imply the knot is permanent; detection latency is bounded
    by [bound] cycles past the last member activity.  Planned stalls push
    out a {e stall horizon}: no knot confirms before every planned stall has
    expired, which prevents false positives from messages parked behind a
    stalled link.

    Determinism: member rotation and victim tie-breaks all resolve through
    label comparisons, never hash or allocation order. *)

(** How to choose the message(s) to abort out of a confirmed knot.  Every
    cycle of the functional wait-for graph is broken by removing any one
    member, so all policies return exactly one victim per knot; they
    differ in which one. *)
type victim_policy =
  | Minimal_victim
      (** Fewest held channels first (least work lost), then the youngest
          waiter (most recently blocked), then the smallest label.  The
          default. *)
  | Youngest  (** Most recently blocked member, then the smallest label. *)
  | Oldest  (** Longest-blocked member, then the smallest label. *)

val victim_policy_string : victim_policy -> string
(** ["minimal"], ["youngest"], ["oldest"]. *)

val victim_policy_of_string : string -> victim_policy option

(** The Stramaglia-Keiren-Zantema deadlock taxonomy (arXiv 2101.06015),
    shared across the kernel witness ([Engine.deadlock_info.d_class]), the
    online detector ([detection.dk_class]) and the post-mortem
    ([Obs_postmortem.t.pm_class]):

    - [Global]: every undelivered message is permanently blocked and the
      blocked set turns on a genuine wait-for cycle -- the paper's
      [Deadlock].
    - [Local]: a wait-for cycle wedged part of the traffic permanently,
      but other messages progressed to delivery around it.
    - [Weak]: traffic is permanently blocked yet the wait-for graph is
      acyclic (e.g. a worm parked behind a failed link), so a drain order
      exists -- freeing the resources in topological order would unblock
      everyone.  Packet disciplines (VCT/SAF) expose this distinction;
      wormhole conflates it with genuine cycles. *)
type deadlock_class = Global | Local | Weak

val deadlock_class_string : deadlock_class -> string
(** ["global"], ["local"], ["weak"]. *)

type config = {
  bound : int;
      (** Confirm a wait cycle after this many member-quiet cycles.  Also
          the detection-latency guarantee: a genuine knot is flagged
          within [bound] cycles of its last member activity.  Must be
          >= 1. *)
  backstop : int;
      (** Watchdog threshold that still covers {e acyclic} wedges (e.g. a
          worm parked forever behind a failed link holds channels without
          waiting in a cycle).  Must be >= 1; keep it well above [bound]
          or the backstop aborts knots before the detector names a
          victim (lint W046). *)
  policy : victim_policy;
}

val default_config : config
(** [{ bound = 16; backstop = 512; policy = Minimal_victim }]. *)

type detection = {
  dk_cycle : int;  (** Cycle at which the knot was confirmed. *)
  dk_formed : int;  (** Cycle of the last member activity before silence. *)
  dk_members : (string * Topology.channel) list;
      (** (waiter, wanted channel) around the cycle, rotated to start at
          the smallest label. *)
  dk_held : (string * Topology.channel list) list;
      (** Channels each member holds at confirmation, sorted. *)
  dk_victims : string list;
      (** Chosen victim(s); always a single label under the built-in
          policies. *)
  dk_class : deadlock_class;
      (** A confirmed knot is a genuine cycle, so never [Weak]: [Local]
          when any message was delivered before confirmation, [Global]
          otherwise.  Provisional -- messages still in flight at
          confirmation may yet deliver; the run-end classification
          ([Engine.deadlock_info.d_class]) is authoritative. *)
}

(** {1 The cycle finder} *)

val find_cycles :
  succ:int array -> mark:int array -> starts:int array -> nstarts:int -> int list
(** [find_cycles ~succ ~mark ~starts ~nstarts] walks the functional graph
    [succ] ([succ.(v) = -1]: no successor) from [starts.(0)], ...,
    [starts.(nstarts - 1)] in that order (negative starts are skipped) and
    returns, in discovery order, the {e entry node} of every cycle a walk
    reaches: the first node of the walk that the walk revisits.  Each cycle
    is reported once, also when a walk merely runs into it; its members in
    walk order are the entry node, its successor, and so on back to the
    entry ({!cycle_at}).
    [mark] is scratch of at least [Array.length succ] zeros and is left
    all zero, so a caller running the finder every cycle allocates nothing
    unless a cycle exists.  O(nodes visited). *)

val cycle_at : int array -> int -> int list
(** [cycle_at succ e] lists the cycle through [e] in walk order, starting at
    [e].  [e] must lie on a cycle of [succ]. *)

val cycles : int array -> int list list
(** Every cycle of [succ], each in walk order from its entry node, walking
    from nodes [0, 1, ...] in order. *)

val rotate_to_min : 'a list -> 'a list
(** Rotate a cycle to start at its smallest element. *)

(** {1 Confirmation} *)

val due : config -> now:int -> formed:int -> stall_horizon:int -> bool
(** A wait cycle whose last member activity was at [formed] is a confirmed
    knot at [now]: [now - max formed stall_horizon >= bound]. *)

val confirm :
  config ->
  now:int ->
  formed:int ->
  delivered:bool ->
  (string * Topology.channel * Topology.channel list * int) list ->
  detection
(** [confirm cfg ~now ~formed ~delivered members] names a confirmed knot
    and its victim.  [members] are (label, wanted channel, held channels
    (sorted), cycle its wait edge appeared) around the cycle, in any
    rotation; [delivered] says whether any message was delivered before
    confirmation. *)
