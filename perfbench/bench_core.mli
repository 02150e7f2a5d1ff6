(** The benchmark's own logic, kept free of the libraries under test so the
    self-tests can drive it with fake clocks and fake counters: span
    recording with self times, output checks that feed [fail_frac], metric
    and unit naming, medians, and the JSON writer. *)

(** {1 Spans} *)

module Span : sig
  type counters = float array
  (** A reading of the monotone counters sampled at span boundaries (GC
      minor words, engine runs started, cancelled runs, pool claims, pool
      cancels, ...); a span stores the per-counter deltas. *)

  type span = {
    id : int;
    name : string;
    parent : int;  (** id of the enclosing span, [-1] at top level *)
    start : float;  (** seconds since the recorder was created *)
    stop : float;
    deltas : counters;
  }

  type t

  val create : ?clock:(unit -> float) -> ?sample:(unit -> counters) -> bool -> t
  (** [create enabled] is a recorder; a disabled one runs the wrapped calls
      and records nothing.  [clock] defaults to [Unix.gettimeofday];
      [sample] (default: no counters) is read at every span boundary. *)

  val enabled : t -> bool

  val run : t -> string -> (unit -> 'a) -> 'a
  (** [run t name f] calls [f ()] inside a span named [name], nested under
      the innermost open span.  The span is closed when [f] raises, too. *)

  val spans : t -> span list
  (** Closed spans in opening order. *)

  val duration : span -> float

  val self_time : t -> span -> float
  (** Duration minus the durations of the direct children. *)

  val total : t -> string -> float
  (** Summed duration of every span named [name] ([0.] when none). *)

  val total_delta : t -> string -> int -> float
  (** Summed [deltas.(i)] of every span named [name]. *)

  val to_json : ?counter_names:string array -> t -> string
  (** Every span as one JSON object per line inside a JSON array, with its
      self time and counter deltas. *)

  val self_table : t -> string
  (** Per span name: calls, total and self seconds, sorted by self time. *)
end

(** {1 Output checks} *)

module Checks : sig
  type t

  val create : ?log:(string -> unit) -> unit -> t
  (** [log] reports each failed check (default: one line on stderr). *)

  val attempted : t -> int
  val failed : t -> int

  val check : t -> string -> bool -> unit
  (** Count one check; a false one is counted as failed and logged.  Never
      raises. *)

  val check_equal : t -> string -> pp:('a -> string) -> 'a -> 'a -> unit
  (** [check_equal t what ~pp expected actual] is one check of structural
      equality. *)

  val protect : t -> string -> (unit -> unit) -> unit
  (** Run [f]; an exception escaping it becomes one failed check instead of
      aborting the run. *)

  val verdict_line : string * bool -> string
  (** A claim row as it appears in the golden verdict files:
      ["<id> ok"] or ["<id> FAIL"]. *)

  val compare_lines : t -> what:string -> expected:string list -> string list -> unit
  (** One check per expected line (the actual line at the same position
      must be equal) plus one check that the line counts agree. *)
end

(** {1 Naming, statistics, JSON} *)

val valid_name : string -> bool
(** 1 to 64 characters of letters, digits, [_], [.] and [-], starting with a
    letter or a digit. *)

val valid_unit : string -> bool
(** 1 to 16 characters of letters, digits, [_], [/], [%], [.] and [-]. *)

val median : float list -> float
(** Median of a non-empty list (mean of the middle two for even lengths).
    @raise Invalid_argument on the empty list. *)

val json_string : string -> string
(** A JSON string literal. *)

val json_number : float -> string
(** Every digit of a finite float ([%.17g]).
    @raise Invalid_argument on NaN or infinities. *)

type metric = { m_name : string; m_unit : string; m_value : float }

val result_line : attempted:int -> failed:int -> metric list -> string
(** The benchmark's final output line:
    [{"correct": .., "attempted": .., "failed": .., "metrics": {..}}].
    [correct] holds exactly when [failed = 0].
    @raise Invalid_argument on an invalid or repeated name, an invalid unit
    or a non-finite value. *)
