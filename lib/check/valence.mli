(** Critical-configuration (valence) analysis — the engine behind the
    Section 6 experiments.

    For a consensus protocol given as an initial configuration, the valence
    of a configuration is the set of values some execution from it decides.
    A configuration is bivalent if its valence has ≥ 2 values, univalent
    otherwise; a critical configuration is a bivalent one all of whose
    successors are univalent (FLP / Herlihy).

    {!consensus_verdict} is the full verdict: does the protocol solve
    consensus (agreement + validity on every reachable terminal, and no
    infinite schedule)?  It is {!Task_check.verdict}'s pipeline with
    consensus as the terminal check.  [find_critical] reproduces the proof
    structure of Lemma 38 mechanically: it descends from the initial
    configuration through bivalent successors to a critical configuration
    and reports the pending steps — or, when the descent ends at a
    terminal that decided two values, the agreement violation. *)

open Subc_sim

(** [consensus_verdict config ~inputs] — [inputs.(i)] is process [i]'s
    proposal; terminals must satisfy validity and agreement over decided
    values, every process must decide (no hung terminals), and no schedule
    may run forever.  A violation is refuted with a schedule ending at
    the violating terminal, a divergence with a lasso ending where a
    process still runs.  Search knobs come from the
    {!Subc_sim.Search.options} record ([?options]): [options.jobs]
    parallelizes the terminal check ({!Subc_sim.Parallel}); the cycle
    search stays sequential.  The verdict status is deterministic either
    way. *)
val consensus_verdict :
  ?options:Search.options -> Config.t -> inputs:Value.t list -> Verdict.t

(** [valence config] — all values reachable as decisions from [config]:
    the decided values of every terminal one claim-once search
    ({!Subc_sim.Search.iter_terminals}, default options) reaches, so a
    cycle in the protocol is visited once.  Decisions are the outputs of
    terminated processes; empty when no execution from [config]
    terminates.
    @raise Failure when the search is truncated by its state or depth
    budget (a partial valence could make a bivalent configuration look
    univalent). *)
val valence : Config.t -> Value.t list

type successor_valence = {
  proc : int;  (** the process whose step was taken *)
  event : Step.event;
  valence : Value.t list;
}

type critical = {
  config : Config.t;
  trace : Trace.t;  (** schedule from the initial configuration *)
  successors : successor_valence list;
}

(** Where the descent through bivalent configurations stops. *)
type descent =
  | Critical of critical
      (** bivalent, every pending step leads to a univalent one *)
  | Disagreement of { config : Config.t; trace : Trace.t }
      (** a terminal that decides two values: an agreement violation,
          reached by [trace] from the initial configuration *)

(** [find_critical config] — [None] if the initial configuration is not
    bivalent: univalent, or with an empty valence when no execution from
    it terminates (or if the descent exceeds 100 000 steps).  A descent
    that reaches a terminal is a [Disagreement], never a critical
    configuration without pending steps.
    @raise Failure as {!valence} does, when a search is truncated. *)
val find_critical : Config.t -> descent option

val pp_descent : Format.formatter -> descent -> unit
