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

    {b The solo memo.}  A solo run of process [p] reads and writes only
    the store and [p]'s own slot, so its distance is a function of
    (store, [p]'s state).  Solo distances are memoized in one table per
    process, keyed by that projection's homomorphic fingerprint:
    {!Subc_sim.Fingerprint.hom_base}, plus every store slot's
    {!Subc_sim.Fingerprint.mix_store_slot}, plus [p]'s
    {!Subc_sim.Fingerprint.mix_proc_slot}.  Configurations that differ
    only in other processes share an entry.  A visited configuration's
    keys are computed from its own slots: each domain keeps the store
    sum and every process's slot mix of the configuration it visited
    last, and patches only the slots that changed
    ({!Subc_sim.Store.diff}, and the cached proc record).  Each solo
    successor's key is patched from its parent's
    ({!Subc_sim.Explore.patched_fingerprint}: a solo step rewrites only
    [p]'s slot and store slots).  While a solo state's distance is being
    computed its entry reads [on_path]; meeting such an entry again is a
    revisit on the current solo path — an infinite solo run, refuted as
    non-termination.  Under [options.paranoid] every key the memo takes
    is compared with a from-scratch fold of (store, [p]); a disagreement
    raises [Invalid_argument].  At [jobs > 1] each domain keeps its own
    tables and caches ({!Subc_sim.Search.iter_reachable_by_domain}).

    {!check_t_resilient} checks the weaker property that no execution with at most
    [t] crashes runs forever (and none hangs a process) — termination
    rather than a per-process solo bound. *)

open Subc_sim

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
    most [t] crashes runs forever and none hangs a process: the
    {!Task_check.verdict} pipeline with "no process hangs" as the
    terminal check.  A hang is refuted with the schedule that reaches the
    hung terminal, a cycle with its lasso.  The [t] budget overrides
    [options.max_crashes]; [options.jobs] spreads the terminal phase,
    the cycle search stays sequential. *)
val check_t_resilient :
  ?options:Search.options ->
  t:int ->
  Store.t ->
  programs:Value.t Program.t list ->
  Verdict.t
