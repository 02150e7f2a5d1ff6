(** Structured simulation events: the vocabulary of the observability layer.

    Every dynamic phenomenon the engines and the search layer can exhibit
    is reported as one of these constructors through an {!Obs.sink}.
    Events are plain data -- consumers (the Chrome-trace exporter, the
    timeline renderer, the deadlock post-mortem) never call back into the
    emitting subsystem.  Counts are not derived from events: the kernel
    keeps them in {!Obs_stats}.

    Channels are topology ids; messages are identified by their schedule
    label.  Cycle numbers are the engine's own cycle counter, so an event
    stream from one run is totally ordered by (emission order) and almost
    totally ordered by cycle. *)

type flit_kind =
  | Inject  (** a flit entered the network at the source channel *)
  | Hop  (** the header advanced into a newly acquired channel *)
  | Cascade  (** a data flit followed the header one hop *)
  | Consume  (** the destination consumed a flit *)

type fault_kind =
  | Planned_failure  (** plan declares a permanent link failure at [cycle] *)
  | Planned_stall  (** plan declares a stall window of [duration] at [cycle] *)
  | Planned_drop  (** plan declares a source-side drop at [cycle] *)
  | Drop_fired  (** a planned drop actually killed/aborted the message *)

type t =
  | Run_start of { engine : string; algorithm : string; messages : int }
  | Run_end of { cycle : int; outcome : string }
      (** [outcome] is one of ["all-delivered"], ["deadlock"], ["cutoff"],
          ["recovered"] *)
  | Channel_acquire of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      waited : int;  (** cycles spent blocked on this channel before winning *)
    }
  | Channel_release of { cycle : int; label : string; channel : Topology.channel }
  | Wait_add of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      holder : string option;  (** owner of the wanted channel, if occupied *)
    }
      (** the message started waiting for a channel it does not own (a
          wait-for edge appeared) *)
  | Wait_drop of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      waited : int;
    }
      (** the wait-for edge disappeared {e without} an acquisition (want
          changed, hold expired, abort); acquisitions emit
          {!Channel_acquire} instead *)
  | Flit of { cycle : int; label : string; channel : Topology.channel; kind : flit_kind }
  | Delivered of { cycle : int; label : string; latency : int }
  | Abort of { cycle : int; label : string; retries : int; reason : string }
      (** recovery drained the message; [reason] is ["watchdog"], ["drop"],
          or ["deadlock"] (detector-chosen victim) *)
  | Retry of { cycle : int; label : string; resume_at : int }
  | Gave_up of { cycle : int; label : string; fate : string }
  | Fault of {
      cycle : int;
      kind : fault_kind;
      channel : Topology.channel option;
      label : string option;
      duration : int;  (** stall length; 0 otherwise *)
    }
  | Deadlock_detected of {
      cycle : int;
      members : string list;  (** knot labels around the wait-for cycle *)
      channels : Topology.channel list;  (** the wanted channels, in knot order *)
      victims : string list;  (** labels the recovery will abort *)
    }
      (** the online detector ({!Obs_detect}) confirmed a wait-for knot *)
  | Victim_aborted of { cycle : int; label : string; policy : string }
      (** detection-triggered recovery aborted this knot member; the
          matching {!Abort} event (reason ["deadlock"]) follows *)
  | Sanitizer_trip of Diagnostic.t
  | Search_start of { algorithm : string; tasks : int }
  | Search_end of { algorithm : string; runs : int; cancelled : int; witness : bool }

val flit_kind_string : flit_kind -> string
val fault_kind_string : fault_kind -> string

val cycle_of : t -> int option
(** The simulation cycle the event belongs to, when it has one. *)

val pp : ?topo:Topology.t -> unit -> Format.formatter -> t -> unit
(** One line per event; channel ids resolve to names when [topo] is given. *)
