(** Process-wide counter totals.

    A search's own figures are its [Explore.stats]; this registry only
    sums them over the process, for the CLI's [--metrics] snapshot and
    the benchmark's probe.  Its one writer in the library is
    [Parallel.run], which adds each search's totals once, when the
    search ends.  Counters are interned by name: look one up once with
    {!counter} and bump it with {!add} (one atomic add, so domains may
    add to the same counter at once).  The registry itself (interning,
    snapshots) is mutex-guarded.  Nothing resets it: a caller that wants
    one run's figures reads that run's stats. *)

type counter

val counter : string -> counter
(** Intern (or retrieve) the counter with the given name. *)

val add : counter -> int -> unit

val find : string -> float option
(** The counter's total, [None] if no counter has that name. *)

val snapshot : unit -> (string * float) list
(** Every counter's total, sorted by name. *)

val emit_snapshot : ?name:string -> unit -> unit
(** Emit the current snapshot as a single event on the current {!Sink}. *)
