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
    checker over orderings within a single execution. *)

open Subc_sim

type harness = { store : Store.t; programs : Value.t Program.t list }

type failure = {
  outcome : Value.t list;  (** reachable in the impl, not in the spec *)
  trace : Trace.t;  (** witness schedule in the implementation *)
}

(** [outcomes harness] — all reachable terminal decision vectors.
    @raise Failure if the state limit is hit. *)
val outcomes : ?max_states:int -> harness -> Value.t list list

(** [refines ~impl ~spec] — [Ok (n_impl, n_spec)] with the outcome-set
    sizes, or the first implementation outcome the spec cannot produce. *)
val refines :
  ?max_states:int ->
  unit ->
  impl:harness ->
  spec:harness ->
  (int * int, failure) result

(** [equivalent ~impl ~spec] — containment in both directions. *)
val equivalent :
  ?max_states:int -> unit -> impl:harness -> spec:harness -> (int, failure) result

(** Verdict-typed forms of {!refines} and {!equivalent}.  A hit state
    limit becomes [Limited].  Search knobs come from the
    {!Subc_sim.Search.options} record ([?options]); [options.reduction]
    is ignored — outcome vectors are compared literally between the two
    harnesses, and quotienting each side independently could pick
    different orbit representatives — while [options.jobs] parallelizes
    each terminal sweep. *)
val check_refines :
  ?options:Search.options -> unit -> impl:harness -> spec:harness -> Verdict.t

val check_equivalent :
  ?options:Search.options -> unit -> impl:harness -> spec:harness -> Verdict.t
