(** Executions as data: the sequence of events of a run.

    A trace together with the initial configuration determines the whole
    execution up to object nondeterminism: programs are deterministic,
    and each event records the response a nondeterministic object chose,
    which some objects give from more than one successor state
    ({!Replay} searches those).  Traces are the counterexamples produced by
    the model checker and the raw material of the linearizability checker.

    Crash faults are events of the trace: [Crash i] records the point in
    the execution at which the adversary stopped process [i], and
    [Recover i] the point at which it revived it ({!Config.recover}).  A
    trace containing crashes and recoveries replays deterministically
    ({!Replay}), so a counterexample schedule under a crash or recovery
    adversary is reproducible. *)

type event =
  | Sched of Step.event  (** process [e.proc] took one atomic step *)
  | Crash of int  (** the adversary crashed the named process *)
  | Recover of int  (** the adversary recovered the named crashed process *)

type t = event list  (** in execution order *)

val empty : t
val length : t -> int

val sched : Step.event -> event

(** The scheduled (operation) events of the trace, crashes and recoveries
    elided. *)
val ops : t -> Step.event list

(** The crash victims of the trace, in crash order. *)
val crashes : t -> int list

(** The recovered processes of the trace, in recovery order. *)
val recoveries : t -> int list

(** [events_of t i] are process [i]'s operation events, in order. *)
val events_of : t -> int -> Step.event list

(** The process schedule of the trace (crashes and recoveries elided). *)
val schedule : t -> int list

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [pp_diagram ~n_procs ppf t] renders a space-time diagram: one column
    per process, one row per event, the acting process's column showing its
    operation and response — or its crash. *)
val pp_diagram : n_procs:int -> Format.formatter -> t -> unit
