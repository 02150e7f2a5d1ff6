(** The paper's example networks, produced by one parameterized generator.

    All of Figures 1-3 and the Section-6 generalization share a shape we call
    an {e access-ring network}:

    - a source node [Src] and a hub node [N*], joined by the shared channel
      [cs : Src -> N*];
    - a directed ring of [ring_len] nodes (the highlighted cycle of the
      figures);
    - per message, an {e access path} of [access] channels from the hub (or
      from a dedicated source node, for messages that do not use [cs]) to its
      ring entry position, followed by [dist] ring channels to its
      destination;
    - hub connectivity ([v -> N*] and [N* -> v] for every node) so the
      network is strongly connected and the default route of the CD
      algorithm ("go to [N*], then straight to the destination") exists for
      every pair.

    The generator also computes each message's full intended path, which the
    routing layer compiles into an oblivious routing table. *)

type source_kind =
  | Shared  (** message is injected at [Src] and uses the shared channel [cs] *)
  | Own of string  (** message has its own source node with the given name *)

type msg_spec = {
  m_label : string;
  m_source : source_kind;
  m_access : int;  (** channels from hub (or own source) to the ring entry; >= 1 *)
  m_entry : int;  (** ring position where the message enters the cycle *)
  m_dist : int;  (** ring channels traversed; destination = entry + dist (mod ring) *)
}

type spec = {
  s_name : string;
  s_ring_len : int;
  s_msgs : msg_spec list;
}

type intent = {
  i_label : string;
  i_src : Topology.node;
  i_dst : Topology.node;
  i_path : Topology.channel list;  (** full path, first channel = injection channel *)
}

type net = {
  n_spec : spec;
  topo : Topology.t;
  source : Topology.node;  (** [Src] *)
  hub : Topology.node;  (** [N*] *)
  cs : Topology.channel;  (** the shared channel [Src -> N*] *)
  ring_nodes : Topology.node array;
  ring_channels : Topology.channel array;  (** index [i] is the channel [r_i -> r_i+1] *)
  intents : intent list;  (** one per message spec, same order *)
}

val build : spec -> net
(** Construct the network.  @raise Invalid_argument on malformed specs
    (bad ring positions, [dist] not in \[1, ring_len\], [access < 1],
    duplicate labels). *)

val check_blocking_chain : net -> (string, string) result
(** Verify the cyclic blocking structure the paper's deadlock configurations
    need: for consecutive messages [Mi], [Mi+1] (cyclically, in spec order)
    the channel into [Mi]'s destination lies strictly inside [Mi+1]'s
    in-cycle path.  [Ok desc] describes the chain; [Error why] explains the
    first violation. *)

val in_cycle_channels : net -> intent -> Topology.channel list
(** The suffix of the intent's path that lies on the ring. *)

val access_channel_count : net -> intent -> int
(** Number of channels from the shared channel (exclusive) to the ring
    (exclusive), i.e. the paper's "channels from [cs] to the cycle". *)

(** {1 The paper's concrete instances} *)

val family : int -> net
(** Section 6 generalization: [family p] has access distances [p+1]/[p+2],
    in-cycle distances [2p+1]/[2p+2] and ring length [8p].  [family 1] is
    exactly the Figure-1 network. *)

val figure1 : unit -> net
(** The Cyclic Dependency network of Figure 1 (= [family 1]). *)

val figure2 : unit -> net
(** Theorem 4 / Figure 2: a cycle whose outside shared channel is used by
    only two messages (a reachable deadlock). *)

val figure3 : [ `A | `B | `C | `D | `E | `F ] -> net
(** The six three-sharer networks of Figure 3.  Cases [`A] and [`B] are
    false resource cycles; [`C]-[`F] admit deadlock.  [`F] adds a fourth
    message from a dedicated source that does not use the shared channel. *)

(** {1 The catalogue of figures and their claimed verdicts} *)

type figure = {
  f_net : net;
  f_deadlock : bool;  (** the paper claims a deadlock is reachable *)
}

val figures : unit -> figure list
(** The eight figure networks in figure order (figure1, figure2,
    figure3a-figure3f), each with the verdict the paper claims: a deadlock
    is reachable in Figure 2 and Figures 3(c)-(f), but not in Figure 1 or
    the false resource cycles of Figures 3(a) and 3(b). *)

val name : net -> string
(** The network's [s_name], e.g. [figure3c] or [family-2]. *)

val find : string -> figure option
(** Look a figure up by its {!name}. *)
