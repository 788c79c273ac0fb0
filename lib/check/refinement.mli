(** Outcome-set refinement between two harnesses.

    The workhorse behind "implementation X behaves like object Y": run the
    same logical harness once against the implementation and once against
    the specification object, exhaustively enumerate the reachable
    terminal outcome vectors (the processes' decisions) of both, and check
    that the implementation's set is contained in the specification's.

    This is sound for checking implementations of {e atomic} objects when
    each harness process performs one high-level operation and returns its
    response: every implementation outcome must then be producible by some
    atomic interleaving.  It complements the per-history linearizability
    checker: refinement quantifies over outcomes, the linearizability
    checker over orderings within a single execution.

    Each harness is enumerated once, keeping one witness schedule per
    distinct outcome.  A [Refuted] verdict names the outcome one side
    lacks, and its trace is that outcome's witness in the other side's
    harness: {!Subc_sim.Replay.final} of it ends at a terminal whose
    decisions are the outcome.  A truncated enumeration is [Limited]. *)

open Subc_sim

type harness = { store : Store.t; programs : Value.t Program.t list }

(** [check_refines ~impl ~spec] — every implementation outcome is a
    specification outcome.  [Proved] carries the outcome-set sizes as
    the metrics [impl_outcomes] and [spec_outcomes].  Search knobs come
    from the {!Subc_sim.Search.options} record ([?options]);
    [options.reduction] is ignored — outcome vectors are compared
    literally between the two harnesses, and quotienting each side
    independently could pick different orbit representatives — while
    [options.jobs] parallelizes each terminal sweep. *)
val check_refines :
  ?options:Search.options -> unit -> impl:harness -> spec:harness -> Verdict.t

(** [check_equivalent ~impl ~spec] — containment in both directions.
    [Proved] carries the common outcome-set size as the metric
    [outcomes]; a refutation's witness replays in the harness that
    reaches the outcome. *)
val check_equivalent :
  ?options:Search.options -> unit -> impl:harness -> spec:harness -> Verdict.t
