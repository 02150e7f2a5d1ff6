(** Prometheus text exposition (format 0.0.4) as one pure function.

    A {!family} is plain data: a name, a help line, a type and its
    samples.  {!render} turns a list of families into text and keeps no
    state, so every counting site builds its families from values it
    already holds ({!Obs_stats}, a campaign record, lint results) and the
    text is a pure function of those values.  Families and series render
    in the order given: callers list families by name and series in a
    fixed order, which keeps the output byte-deterministic. *)

type labels = (string * string) list
(** Label pairs of one series, rendered in list order; values are
    escaped, names are taken as given. *)

type family

val counter : help:string -> string -> (labels * int) list -> family
(** [counter ~help name samples]: one series per sample. *)

val gauge : help:string -> string -> (labels * int) list -> family

val histogram :
  help:string -> string -> bounds:int array -> counts:int array -> sum:int -> family
(** One unlabelled histogram.  [counts] holds one slot per entry of
    [bounds] (strictly increasing upper bounds) plus the overflow slot;
    the rendering is cumulative [_bucket{le="..."}] lines, the [+Inf]
    bucket, [_sum] and [_count]. *)

val render : family list -> string
(** [# HELP] and [# TYPE] headers, then the family's samples. *)
