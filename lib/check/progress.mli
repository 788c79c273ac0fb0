(** Progress properties: wait-freedom certificates and t-resilient
    termination.

    Every algorithm this repository reproduces makes a {e wait-free} claim:
    each process terminates in a bounded number of its own steps regardless
    of what the others do — including crashing.  {!check_wait_free} certifies this
    by exhaustive search: from {e every} reachable configuration (under
    every interleaving and every crash pattern within the budget), every
    running process must terminate within a bounded number of {e solo}
    steps.  The certificate is the bound; the failure is a concrete
    counterexample schedule — a reachable prefix after which some process
    runs solo forever (the signature of a merely lock-free construction) or
    hangs.

    {!check_t_resilient} checks the weaker property that no execution with at most
    [t] crashes runs forever (and none hangs a process) — termination
    rather than a per-process solo bound. *)

open Subc_sim

type certificate = {
  solo_bound : int;
      (** max over reachable configurations and running processes of the
          number of solo steps needed to terminate *)
  configs : int;  (** reachable configurations checked *)
  stats : Explore.stats;
}

type failure =
  | Non_terminating of { proc : int; prefix : Trace.t; spin : Trace.t }
      (** after [prefix], [proc] running solo revisits a configuration or
          exceeds the solo-step limit: an infinite solo run *)
  | Hang of { proc : int; prefix : Trace.t; spin : Trace.t }
      (** after [prefix], [proc] running solo performs an invocation with
          no successor *)
  | Limited of Explore.stats
      (** the reachable-state exploration was truncated: no verdict *)

val pp_certificate : Format.formatter -> certificate -> unit
val pp_failure : Format.formatter -> failure -> unit

(** [check_wait_free store ~programs] certifies wait-freedom.  Search
    knobs come from the {!Subc_sim.Search.options} record ([?options]):
    [max_crashes] additionally quantifies the reachable prefix over every
    crash pattern within the budget, [max_recoveries] over every
    crash-recovery pattern, [deadline] (seconds of wall clock) gracefully
    truncates the enumeration — the verdict is then Limited — and [jobs]
    spreads the reachable-prefix enumeration across that many domains
    ({!Subc_sim.Parallel}).  [reduction] applies to the reachable-prefix
    enumeration (symmetry only; source sets are stripped from
    reachability at any [jobs]).  [solo_limit] caps the solo search
    per process (default 10000); exceeding it counts as non-termination.
    The verdict status, solo bound and configuration count are
    deterministic, the counterexample witness (on refutation) may differ
    between runs.  The solo bound and configuration count are in the
    verdict's metrics. *)
val check_wait_free :
  ?options:Search.options ->
  ?solo_limit:int ->
  Store.t ->
  programs:Value.t Program.t list ->
  Verdict.t

(** [check_t_resilient ~t store ~programs] checks that no schedule with at
    most [t] crashes runs forever and none hangs a process.  The [t]
    budget overrides [options.max_crashes]; cycle hunting is always
    sequential, so [options.jobs] is ignored. *)
val check_t_resilient :
  ?options:Search.options ->
  t:int ->
  Store.t ->
  programs:Value.t Program.t list ->
  Verdict.t
