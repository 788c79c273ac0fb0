(** Analysis subjects: one sequential object model under one declared
    discipline.

    A subject bundles everything the reduction layer {e assumes} about an
    object with everything the analyzer must {e verify}: the op alphabet the
    protocol may issue, the claimed determinism class, whether invocations
    may hang, the permutation group the symmetry reduction will quotient by,
    the independence judgment the source-set reduction will consume, and —
    for objects enabling the full symmetric group — the claim that the
    object is value-oblivious.  The analyzer ({!Analyzer}) checks each claim
    over the subject's reachable state space and returns
    [Subc_check.Verdict.t] findings. *)

open Subc_sim

type expected_class =
  | Deterministic  (** every reachable (state, op) has at most one successor *)
  | Nondeterministic  (** some reachable (state, op) branches *)

(** How same-object independence of two ops is judged. *)
type independence =
  | Semantic
      (** certify {!Explore.op_independent} — the exact judgment the
          source-set layer consumes — against a fresh, uncached diamond
          computation at every reachable state *)
  | Declared of (Op.t -> Op.t -> bool)
      (** a state-independent, footprint-style declaration.  Used by the
          negative tests to seed a false independence claim and harvest a
          concrete race witness. *)

(** How far the reachable state space extends. *)
type bound =
  | Closure
      (** the state space must reach a fixpoint within [max_states];
          certificates are then unconditional for the subject *)
  | Ops of int
      (** enumerate states reachable by at most [d] operations (for
          unbounded objects such as counters and queues); certificates
          cover any protocol issuing at most [d] ops on the object *)

type t = {
  name : string;
  model : Obj_model.t;
  alphabet : Op.t list;  (** the ops the protocol may issue on the object *)
  expected : expected_class;
  may_hang : bool;  (** some reachable invocation legitimately hangs *)
  symmetry : Symmetry.t;
      (** declared automorphism group + data action; reports name it by
          {!Symmetry.group_name} *)
  independence : independence;
  value_oblivious : bool;
      (** claimed: renaming data values commutes with [apply] *)
  values : Value.t list;
      (** the data-value tokens the obliviousness check swaps pairwise *)
  bound : bound;
  max_states : int;  (** safety net for {!Closure} enumeration *)
}

val make :
  name:string ->
  model:Obj_model.t ->
  alphabet:Op.t list ->
  expected:expected_class ->
  ?may_hang:bool ->
  ?symmetry:Symmetry.t ->
  ?independence:independence ->
  ?value_oblivious:bool ->
  ?values:Value.t list ->
  ?bound:bound ->
  ?max_states:int ->
  unit ->
  t
(** Defaults: no hangs, identity group ([Symmetry.trivial ~n:1]),
    [Semantic] independence, no value-obliviousness claim, [Closure]
    bound with a 20_000-state safety net. *)

val op_pairs : t -> (Op.t * Op.t) list
(** Every unordered pair of the alphabet, same-op pairs included (two
    processes may issue the same op): what {!Commute} and {!Sourceset}
    judge at each state. *)

val independent : t -> Value.t -> Op.t -> Op.t -> bool
(** [independent s st a b] is the subject's independence judgment of
    [a] and [b] at object state [st]: {!Explore.op_independent} under
    [Semantic], the declared predicate under [Declared]. *)
