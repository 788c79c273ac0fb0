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

    For each family this module runs {!Consensus_number}'s canonical
    protocol in its recoverable form — consult a persistent per-process
    decision register first, write it last — and delivers a
    {!Subc_check.Verdict.t} by exhaustive exploration over every
    schedule, every crash pattern within the crash budget, and every
    recovery pattern within [max_recoveries].  At [max_recoveries = 0]
    the check coincides with the classic crash-tolerant consensus
    check.

    A [Refuted] verdict refutes {e that protocol}, not every protocol —
    but for the canonical protocols these are exactly the textbook
    separations, and the [Proved] verdicts are exhaustive proofs at the
    given [n] and budgets. *)

open Subc_sim

(** The 7 families the table covers: register, test-and-set,
    fetch-and-add, swap, queue, compare-and-swap, consensus object. *)
val all_families : Consensus_number.family list

(** [protocol store family ~n ~max_recoveries] — one program per
    process, proposing 0, …, n−1.  It allocates n decision registers,
    then {!Consensus_number.protocol}'s registers and object (sized by
    [max_recoveries]); each process returns its decision register if
    set, else runs the classic program and writes its decision. *)
val protocol :
  Store.t -> Consensus_number.family -> n:int -> max_recoveries:int ->
  Store.t * Value.t Program.t list

(** [verdict family ~n ~max_recoveries] — exhaustive recoverable-consensus
    check on the {!Subc_check.Task_check.verdict} pipeline: validity and
    agreement over the decided values on every reachable terminal (a
    process still crashed when the budgets run out decides nothing; a
    hung process refutes), plus termination of every schedule.  The
    [max_recoveries] label overrides [options.max_recoveries], and a
    zero [options.max_crashes] (the record default) is widened to
    [max (n − 1) max_recoveries] so every recovery can be exercised.
    The verdict status is deterministic at any [options.jobs]. *)
val verdict :
  ?options:Search.options -> Consensus_number.family -> n:int ->
  max_recoveries:int -> Subc_check.Verdict.t
