(** Per-phase wall-clock accumulation.

    [time label f] runs [f], adds its duration to the running total for
    [label], and emits a ["span"] event on the current {!Sink}. Durations
    are wall-clock seconds ([Unix.gettimeofday]), so a phase run across
    several domains counts once and a blocked phase still counts. *)

val time : string -> (unit -> 'a) -> 'a
(** Run the thunk, accounting its duration under [label]. Exceptions
    propagate after the span is recorded. *)

val totals : unit -> (string * float) list
(** Accumulated seconds per label, sorted by label. *)

val total : string -> float option

val reset : unit -> unit
