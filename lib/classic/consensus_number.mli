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
    the successes are exhaustive proofs. *)

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
val all_families : family list

(** Known consensus number, for the table ([None] = infinite). *)
val known_consensus_number : family -> int option

(** [protocol store family ~n] — the canonical consensus protocol: one
    program per process, proposing values 0, …, n−1. *)
val protocol : Store.t -> family -> n:int -> Store.t * Value.t Program.t list

(** [verdict family ~n] — the canonical protocol's
    {!Subc_check.Valence.consensus_verdict}: [Proved] when it solves
    n-process consensus, [Refuted] by a violating terminal or a
    divergence lasso, [Limited] when the default search budget
    truncates. *)
val verdict : family -> n:int -> Subc_check.Verdict.t
