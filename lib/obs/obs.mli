(** The observability bus: process-wide sink management and the event
    recorder.

    A {!sink} receives every {!Obs_event.t} the instrumented subsystems
    emit.  Exactly one sink is installed at a time ({!install} /
    {!uninstall}); the engines read it once per run and guard every
    emission site, so a disabled bus costs one [Atomic.get] per run and
    {e nothing} per cycle — zero-cost-when-off.

    Emitting is observation only: installing any sink must not change any
    engine outcome (enforced by a QCheck property in [test_obs]).  Sinks
    may be called from helper domains during pool sweeps, so they must be
    domain-safe; {!recorder} is.

    Events feed traces ({!Chrome}, {!Timeline}) and post-mortems
    ({!Postmortem}) only.  Counting is {!Stats}' job: the kernel bumps its
    accumulator once per phenomenon, and {!Obs_prom} renders it; no
    consumer folds events into counts (DESIGN.md §11). *)

module Event = Obs_event
module Chrome = Obs_chrome
module Timeline = Obs_timeline
module Postmortem = Obs_postmortem

module Stats = Obs_stats
(** The counting plane: the kernel's allocation-free accumulator.  See
    {!Obs_stats}. *)

type sink = { emit : Obs_event.t -> unit }

val install : sink -> unit
val uninstall : unit -> unit

val current : unit -> sink option
(** The installed sink, if any.  Engines call this once per run when no
    explicit [?obs] argument is given. *)

val emit : Obs_event.t -> unit
(** Emit to the installed sink, or do nothing.  Callers on hot paths should
    instead hoist [current ()] and guard emission themselves. *)

val recorder : unit -> sink * (unit -> Obs_event.t list)
(** [recorder ()] is a mutex-protected accumulating sink and a function
    returning everything recorded so far, in emission order. *)
