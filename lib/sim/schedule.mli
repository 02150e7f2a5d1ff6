(** Injection schedules: the workload of one simulation run.

    A schedule fixes, for every message, its endpoints, its length in flits,
    its injection time, and (for adversarial experiments, Section 6 of the
    paper) extra stalls the "network adversary" imposes on the header at
    given channels even though the output channel is available. *)

type message_spec = {
  ms_label : string;
  ms_src : Topology.node;
  ms_dst : Topology.node;
  ms_length : int;  (** flits; >= 1 *)
  ms_inject_at : int;  (** cycle at which the source starts requesting *)
  ms_holds : (Topology.channel * int) list;
      (** [(c, t)]: after the header enters channel [c], stall it [t] extra
          cycles before it may request its next channel *)
}

type t = message_spec list

val message : ?length:int -> ?at:int -> ?holds:(Topology.channel * int) list ->
  string -> Topology.node -> Topology.node -> message_spec
(** Convenience constructor; [length] defaults to 1, [at] to 0. *)

val of_intents : length:int -> Paper_nets.net -> t
(** A paper network's designated messages, in intent order, each [length]
    flits long and injected at cycle 0. *)

val max_length : t -> int
(** The longest message's length in flits; 1 for the empty schedule. *)

val validate : Routing.t -> t -> (unit, string) result
(** Labels unique; lengths and times sane; every message routable. *)

val validate_paths : Routing.t -> t -> (Topology.channel array array, string) result
(** As {!validate}, but on success returns each message's computed route (in
    schedule order), so a caller that needs the paths anyway -- the
    switching kernel -- walks the routing exactly once. *)

val pp : Topology.t -> Format.formatter -> t -> unit
