(** Deterministic re-execution of recorded traces.

    A trace plus the initial configuration determines the execution up to
    object nondeterminism: each event names the process that stepped, the
    operation, the object and the response it received.  A
    nondeterministic object may give that response from several
    successor states (a set-consensus object answers [0] from [[0]] and
    from [[0; 1]]), so replay searches the matching successors depth
    first, and a trace replays when some resolution of them reproduces
    every event.  Crash
    events replay as {!Config.crash} transitions and recovery events as
    {!Config.recover}, so counterexample schedules produced under a crash
    or recovery adversary or a fault-budgeted exploration reproduce the
    same terminal configuration.  Replay recovers
    every intermediate configuration — used to pretty-print counterexample
    schedules with full store states, and to assert that traces produced by
    the runner and the model checker are faithful. *)

type error = {
  at : int;  (** index of the event that failed to replay *)
  reason : string;
}

(** [replay config trace] returns the configurations {e after} each event
    (so the list has one entry per event; the final configuration is the
    last) along the first resolution of object nondeterminism, in
    successor order, that reproduces the whole trace.  Fails if the
    trace does not correspond to an execution from [config]; the error
    names the deepest event any resolution reached. *)
val replay : Config.t -> Trace.t -> (Config.t list, error) result

(** [final config trace] — just the last configuration. *)
val final : Config.t -> Trace.t -> (Config.t, error) result

(** [pp_annotated ppf (config, trace)] prints the trace interleaved with
    object states. *)
val pp_annotated : Format.formatter -> Config.t * Trace.t -> unit
