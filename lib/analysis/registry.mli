(** The registry: every analysis subject the CI gate runs, and the family
    table — each family's checked instance, built beside the subjects that
    certify its reductions.

    One entry per family.  The ["objects"] family covers every sequential
    model in [lib/objects] under the strongest symmetry group its users
    declare; the algorithm families ([alg2] .. [alg6], [1swrn],
    [set-consensus]) register the (object, symmetry spec, op alphabet)
    combinations their instances enable in the reduction layer, and a
    builder of the instance itself ({!Subc_check.Harness.t}).  The CLI's
    [check], [explore], [crash-sweep] and [sample], the test suite's
    determinism matrix and the experiment tables all build a family's
    instance here, so an [analyze] run over the registry certifies the
    reductions of the instances they check: every object class a
    family's instance stores is the class of one of its subjects (a test
    checks this at the CLI's default size).

    Subjects use small instance sizes (two or three processes) and token
    value alphabets ([100..102], the proposal convention
    {!Subc_check.Harness.tok}).  The value-obliviousness check is what
    licenses the token abstraction: an object certified oblivious behaves
    identically up to renaming for any richer value domain.  Unbounded
    objects (counters, fetch-and-add, queues) carry an op budget
    ({!Subject.Ops}) sized to their protocols' invocation counts; their
    certificates cover any protocol within the budget. *)

type entry = {
  family : string;
  doc : string;  (** one line: what the family's certificate covers *)
  subjects : Subject.t list;
  harness : (n:int -> k:int -> crashes:int -> Subc_check.Harness.t) option;
      (** the family's instance at [n] processes (where the family has a
          process count of its own) and arity [k], its property as
          checked under crash budget [crashes]: what the CLI checks *)
  protocols : unit -> Absint.protocol list;
      (** checkable protocol exemplars — one program per process at the
          subjects' instance sizes — for the [analyze --lint] gate; a
          family's instance at that size where the two are one program *)
}

val entries : unit -> entry list
val families : unit -> string list
val find : string -> entry option

(** {1 The family builders}

    Each family's instance at a size.  A task family's property is its
    set-consensus task, every process deciding when [crashes = 0] (under
    crashes, a crashed process never decides).  Process [i] proposes
    {!Subc_check.Harness.tok}[ i]; in Algorithm 3 the process with
    identifier [id] proposes [1000 + id].  Identifiers and the per-group
    vectors of Algorithm 6 break the positional process symmetry, so
    Algorithms 3, 4 and 6 declare terminal-store erasure alone. *)

val alg2 : k:int -> crashes:int -> Subc_check.Harness.t
(** Algorithm 2, one-shot: (k-1)-set consensus from one 1sWRN_k, under
    rotations. *)

val alg3 :
  flavor:Subc_core.Alg3.flavor ->
  renamer:Subc_core.Alg3.renamer ->
  ids:int list ->
  crashes:int ->
  Subc_check.Harness.t
(** Algorithm 3: slot [i] runs the [i]-th identifier of [ids]; (k-1)-set
    consensus for [k = List.length ids]. *)

val alg4 : k:int -> Subc_check.Harness.t
(** Algorithm 4 (relaxed WRN_k from 1sWRN_k and guard counters), process
    [i] at index [i]: no task of its own, so its property is
    termination. *)

val alg5 : k:int -> Subc_check.Harness.t
(** Algorithm 5 (1sWRN_k from strong set election), proved linearizable;
    rotations. *)

val alg6 : n:int -> k:int -> crashes:int -> Subc_check.Harness.t
(** Algorithm 6, one-shot: [n] processes over groups of 1sWRN_k, set
    consensus at its agreement bound. *)

val one_shot_wrn_object : k:int -> Subc_check.Harness.t
(** The one-shot WRN_k object, used once per index, proved linearizable;
    rotations. *)

val set_consensus_object : n:int -> k:int -> crashes:int -> Subc_check.Harness.t
(** One (n, k)-set-consensus object, [n] processes proposing; the full
    symmetric group. *)

val declared_alphabets : Subject.t list -> Absint.decl list
(** The per-kind environment declaration the abstract interpreter lints a
    family's protocols against: union of the subjects' alphabets per object
    kind, with op-budgeted subjects ({!Subject.Ops}) bounding the abstract
    state-pool closure of unbounded objects. *)
