(** Set-consensus power classification (the paper's conclusion).

    The paper conjectures that set-consensus power — which (n,k)-set
    consensus tasks an object can solve — is the right yardstick for
    deterministic objects below 2-consensus.  This module implements, for
    each object family, its {e canonical} (n,k)-set-consensus protocol and
    the theoretical prediction of where it succeeds, so experiment E13 can
    chart the power matrix and the model checker can confirm every cell:

    - registers: solvable iff k ≥ n (trivial decide-own; anything better is
      BG/HS/SZ-impossible);
    - WRN{_j} objects: Algorithm 6's bound (j−1)⌊n/j⌋ + min(n mod j, j−1);
    - 2-consensus pairs (swap groups): ⌈n/2⌉;
    - the (j, j−1)-strong-set-election object: min(n, j−1) for n ≤ j;
    - compare-and-swap: everything. *)

type family =
  | Registers
  | Wrn_objects of int  (** WRN{_j} *)
  | Two_consensus_pairs  (** swap-backed 2-consensus per pair of processes *)
  | Sse_object of int  (** the (j, j−1)-strong-set-election object *)
  | Cas_object

val family_name : family -> string

(** [applicable family ~n] — some families only support few processes
    (the one-shot SSE object has j ports). *)
val applicable : family -> n:int -> bool

(** The theoretical agreement bound the canonical protocol achieves. *)
val predicted_bound : family -> n:int -> int

(** [predicted family ~n ~k] = [predicted_bound family ~n <= k]. *)
val predicted : family -> n:int -> k:int -> bool

(** [protocol store family ~n] — the canonical protocol: one program per
    process, proposing 100, …, 99 + n.  It builds nothing itself: it runs
    {!Consensus_number.grouped} over one consensus-number family —
    registers in groups of 1, WRN{_j} in groups of j (Algorithm 6), swap
    in pairs, the SSE object and compare-and-swap in one group of n. *)
val protocol :
  Subc_sim.Store.t -> family -> n:int ->
  Subc_sim.Store.t * Subc_sim.Value.t Subc_sim.Program.t list

(** [verdict family ~n ~k] — model-check the canonical protocol against
    the (n,k)-set-consensus task, every process deciding, on the
    {!Subc_check.Task_check.verdict} pipeline: [Proved] when it solves
    the task, [Refuted] by a violating terminal or a divergence lasso,
    [Limited] when the default search budget truncates. *)
val verdict : family -> n:int -> k:int -> Subc_check.Verdict.t
