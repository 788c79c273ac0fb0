(** Herlihy's consensus-number table, machine-checked.

    For each object class we run its {e canonical} n-process consensus
    protocol — the textbook protocol where one exists, the natural
    generalization where none does — and let the valence engine deliver
    the verdict.  The expected shape is Herlihy's hierarchy refined by the
    paper: registers and WRN{_k} (k ≥ 3) fail already at n = 2; swap
    (= WRN₂), test-and-set, fetch-and-add and queues solve n = 2 but fail
    at n = 3; compare-and-swap and consensus objects solve both.

    A failed verdict refutes {e that protocol}, not every protocol — but
    for the objects with consensus number 2 the n = 3 failure of the
    canonical protocol is exactly the textbook separation, and for n = 2
    the successes are exhaustive proofs.

    This is the one place a canonical protocol is built:
    {!Set_consensus_power} runs it in groups ({!grouped}) and
    {!Recoverable} wraps it in a persistent decision register. *)

open Subc_sim

type family =
  | Register
  | Wrn of int
  | Swap
  | Test_and_set
  | Fetch_and_add
  | Queue
  | Cas
  | Consensus_object
  | Strong_set_election of int  (** the S2 object, (k, k−1) *)

val family_name : family -> string

(** Known consensus number, for the table ([None] = infinite). *)
val known_consensus_number : family -> int option

(** [protocol store family ~inputs] — the canonical consensus protocol:
    one program per input, process [i] proposing [inputs.(i)].  It
    allocates one announcement register per process, then the object;
    every program first writes its input to its own register.
    [max_recoveries] (default 0) only sizes bounded resources — the
    queue holds one [win] and n − 1 + [max_recoveries] [lose] tokens —
    for {!Recoverable}, which re-runs programs after a crash. *)
val protocol :
  ?max_recoveries:int -> Store.t -> family -> inputs:Value.t list ->
  Store.t * Value.t Program.t list

(** [grouped store family ~size ~inputs] splits the processes, in order,
    into groups of [size] (the last may be smaller) and runs {!protocol}
    once per group on a fresh object: ⌈n/size⌉ independent consensus
    instances, hence at most that many distinct decisions. *)
val grouped :
  Store.t -> family -> size:int -> inputs:Value.t list ->
  Store.t * Value.t Program.t list

(** [verdict family ~n] — the canonical protocol's
    {!Subc_check.Valence.consensus_verdict}: [Proved] when it solves
    n-process consensus, [Refuted] by a violating terminal or a
    divergence lasso, [Limited] when the default search budget
    truncates. *)
val verdict : family -> n:int -> Subc_check.Verdict.t
