(** Recoverable consensus: the consensus-number table under the
    crash-recovery fault model, machine-checked.

    Under crash-stop faults Herlihy's hierarchy puts test-and-set,
    fetch-and-add, swap and queues at consensus number 2.  Under
    crash-{e recovery} — a crashed process may restart its protocol with
    its local state wiped while shared-object state persists — that power
    evaporates (Ovens 2024): a test-and-set winner that crashes between
    winning and persisting its decision re-competes on recovery, loses to
    its own dead incarnation, and adopts another process's value.
    Compare-and-swap and consensus objects are immune: re-running the
    competition step returns the original outcome.

    For each family this module runs the canonical protocol in its
    recoverable form — consult a persistent per-process decision register
    first, write it last — and delivers a {!Verdict.t} by exhaustive
    exploration over every schedule, every crash pattern within the crash
    budget, and every recovery pattern within [max_recoveries].  At
    [max_recoveries = 0] the check coincides with the classic
    crash-tolerant consensus check.

    A [Refuted] verdict refutes {e that protocol}, not every protocol —
    but for the canonical protocols these are exactly the textbook
    separations, and the [Proved] verdicts are exhaustive proofs at the
    given [n] and budgets. *)

open Subc_sim

type family =
  | Register
  | Test_and_set
  | Fetch_and_add
  | Swap
  | Queue
  | Cas
  | Consensus_object

val family_name : family -> string
val all_families : family list

(** Whether the family's canonical protocol solves recoverable consensus
    (n = 2, any recovery budget): true for [Cas] and [Consensus_object]. *)
val solves_recoverable : family -> bool

(** [protocol store family ~n ~max_recoveries] — the canonical recoverable
    consensus protocol: one program per process, proposing 0, …, n−1.
    [max_recoveries] only sizes bounded resources (the queue's token
    supply); the budget itself is enforced by the explorer. *)
val protocol :
  Store.t ->
  family ->
  n:int ->
  max_recoveries:int ->
  Store.t * Value.t Program.t list

(** [verdict family ~n ~max_recoveries] — exhaustive recoverable-consensus
    check on the {!Task_check.verdict} pipeline: validity and agreement
    over the decided values on every reachable terminal (a process still
    crashed when the budgets run out decides nothing, which is allowed; a
    hung process refutes), plus termination of every schedule.  Search knobs come from the
    {!Subc_sim.Search.options} record ([?options]); the [max_recoveries]
    label overrides [options.max_recoveries], and a zero
    [options.max_crashes] (the record default) is widened to
    [max (n − 1) max_recoveries] so every recovery can be exercised.
    [options.deadline] gracefully truncates to [Limited];
    [options.jobs] parallelizes the terminal sweep
    ({!Subc_sim.Parallel}).  The verdict status is deterministic. *)
val verdict :
  ?options:Search.options -> family -> n:int -> max_recoveries:int -> Verdict.t

(** The expected verdict at n = 2 — the separation table the test suite
    pins: registers refuted at every budget; test-and-set, fetch-and-add,
    swap and queue proved at [max_recoveries = 0] and refuted at ≥ 1;
    CAS and consensus objects proved throughout. *)
val expected : family -> max_recoveries:int -> [ `Proved | `Refuted ]
