(** Per-phase wall-clock spans.

    [time label f] runs [f] and emits one ["span"] event on the current
    {!Sink} with its [label] and its duration in [seconds].  Durations
    are wall-clock seconds ([Unix.gettimeofday]), so a phase run across
    several domains counts once and a blocked phase still counts.  No
    total is kept: a caller that wants one installs a sink and sums the
    events. *)

val time : string -> (unit -> 'a) -> 'a
(** Run the thunk and emit its span.  Exceptions propagate after the
    span is emitted. *)
