(** ASCII channel-occupancy timeline reconstructed from the event stream:
    the pictures wormhole-routing papers draw by hand.

    One row per ever-occupied channel, one column per cycle, the first
    letter of the owning label (uppercase when more than one flit queues,
    ['.'] when free), rows sorted by first occupancy.  Driven by a recorded
    {!Obs_event.t} list, so any run under an [Obs.recorder] can be rendered
    after the fact:

    {[
      let sink, events = Obs.recorder () in
      ignore (Engine.run ~obs:sink rt sched);
      print_string (Obs.Timeline.render topo (events ()))
    ]} *)

val render : ?max_cycles:int -> Topology.t -> Obs_event.t list -> string
(** [max_cycles] (default 120) truncates wide timelines: a truncated render
    marks every row with [" …"] and ends with an explicit ["… +N cycles"]
    line, and channels first occupied beyond the cutoff still get (empty,
    marked) rows.  Returns [""] when the stream carries no cycled
    events. *)
