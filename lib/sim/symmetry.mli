(** Process-symmetry specifications for state-space reduction.

    Many of the paper's algorithms are {e symmetric}: every process runs the
    same program up to renaming, and the objects treat process identities
    uniformly (or, for ring-structured algorithms such as WRN's "read the
    next cell", uniformly up to rotation).  If [pi] is an automorphism of
    the transition system, then configurations [c] and [pi(c)] have
    isomorphic futures, and the model checker only needs to explore one
    representative per orbit.  This module describes the automorphism
    group and its action on configurations; {!Explore} uses it to
    canonicalize memoization keys.

    {b Soundness obligations, and who discharges them.}  The spec given to
    the explorer must be a true automorphism group.  Its object-level
    obligations are discharged {e mechanically} by the static soundness
    analyzer ([Subc_analysis], CLI [analyze]): for every registered object
    model it certifies that each group element is an automorphism of the
    object's reachable transition system (π∘apply = apply∘π on states and
    responses, hangs included), that the group fixes the initial state and
    maps the protocol's op alphabet into itself, and — for objects claiming
    the full symmetric group — that the object is value-oblivious.  Two
    obligations remain {e out of the analyzer's scope} and stay with the
    caller: the checked property must be invariant under the renaming
    (agreement, set-validity, termination and step-count bounds all are; a
    property naming a specific process is not), and processes in the same
    orbit must run the same program modulo the data action.  The
    cross-validation suite ([test_reduction]) additionally checks each
    algorithm family end-to-end by comparing reduced and unreduced
    verdicts.

    The group to use depends on the algorithm:
    - full symmetric group ([`Full]) for read/write and snapshot-based
      algorithms and for proposal-oblivious objects (set-consensus
      objects, SSE);
    - rotations only ([`Rotations]) for WRN-family rings, where process i
      reads cell (i+1) mod k: an arbitrary transposition breaks the ring
      structure, but rotating all indices preserves it;
    - [`Trivial] when no renaming is valid (asymmetric programs); the spec
      can still enable dead-history erasure. *)

type perm = int array
(** [pi.(i)] is the image of process [i]. *)

val identity : int -> perm
val apply : perm -> int -> int

val rotations : int -> perm list
(** The cyclic group: all [n] rotations of [0..n-1], identity included. *)

val all_perms : int -> perm list
(** The full symmetric group ([n!] elements) — only for tiny [n]. *)

type t

val standard :
  n:int ->
  ?input_base:int ->
  ?map_ids:bool ->
  ?erase_dead:bool ->
  [ `Trivial | `Rotations | `Full ] ->
  t
(** The spec for the repo's standard harness conventions: process ids are
    integers [0..n-1] (renamed when [map_ids], default true), proposals are
    [input_base..input_base+n-1] (renamed consistently when given), and any
    [Vec] of length exactly [n] inside object states, responses, or decided
    values is process-indexed.  See {!deep_act}.  [erase_dead] (default
    true) additionally drops the response histories of terminated/hung
    processes — and, for terminal configurations with no crashed process,
    the whole store — from the memo key; this is sound independently of
    the group because finished state can no longer influence the
    execution and no checker reads it back.  A terminal {e with} crashed
    processes keeps its store: under a positive recovery budget a victim
    can still be revived and its future reads the store. *)

val trivial : n:int -> t
(** Identity group, no erasure: the key tree is [Config.key], the image
    key is {!Fingerprint.hom_of_config} and a patch under it is the plain
    homomorphic patch, bit for bit.  A search whose reduction has no
    symmetry keys every node under it.  The specs for [n < 8] are built
    once, at load, and shared. *)

val erasure_only : n:int -> t
(** Identity group with dead-history/terminal-store erasure: a reduction
    that is sound for {e every} algorithm, symmetric or not. *)

val deep_act :
  n:int -> map_ids:bool -> input_base:int option -> perm -> Value.t -> Value.t
(** The standard data action (exposed for property tests): renames process
    ids and proposal values, permutes the slots of every length-[n] [Vec]
    (recursing into entries), and traverses pairs/tags/other vectors
    structurally. *)

val n_procs : t -> int
val group_order : t -> int

val group_name : t -> string
(** The group {!standard} was given: ["trivial"], ["rotations"] or
    ["full"] ({!trivial} and {!erasure_only} are ["trivial"]). *)

val perms : t -> perm list
(** The explicit group, identity included (exposed for the soundness
    analyzer and for property tests). *)

val act : t -> perm -> Value.t -> Value.t
(** The spec's data action on a single value (object state, op argument or
    response).  The soundness analyzer uses it to verify that every group
    element is an automorphism of each object's transition system. *)

val key_under : t -> perm -> Config.t -> Value.t
(** The memoization key of a configuration under one fixed renaming
    (exposed for property tests). *)

val canonical_minimizers : t -> Config.t -> Value.t * perm list
(** [canonical_minimizers t c] is the canonical key together with {e every}
    permutation achieving it, in group order (so the head is
    {!canonical_key}'s winner).  The list is the coset of the canonical
    representative's stabilizer; {!Explore} minimizes the packed sleep-set
    encoding over it so the (state, sleep) visited key is an orbit
    invariant of the abstract pair rather than of whichever concrete
    representative arrived first, and orders siblings by their image
    under the head.  Almost all states have a trivial stabilizer, making
    the list a singleton.  This is the key-tree reference path (one tree
    per group element), used by [~paranoid] searches; the explorer's fast
    path is {!canonical_winner}. *)

val canonical_key : t -> Config.t -> Value.t * perm
(** [canonical_key t c] is the minimum of [key_under t pi c] over the
    group, with the permutation that achieves it (ties keep the earliest
    in group order): the head of {!canonical_minimizers}.
    Canonicalization is idempotent ([canonical_key] of any orbit member
    yields the same key) and permutation-invariant. *)

(** {1 Incremental keys}

    The key a search claims [c]'s orbit by is [image_fingerprint t g c]
    for the winner [g] of [canonical_winner t c]: the homomorphic
    fingerprint of the canonical key tree, the sum of per-slot mixes of
    [key_under t pi c] for the winner [pi], with the erased store mixing
    as {!Fingerprint.erased_store} (the test suite recomputes it from the
    tree).  So two configurations share a key exactly when they share a
    canonical key, up to the fingerprint's collision odds.  [c] must
    have [n_procs t] processes, as every harness's spec does.  A search
    carries keys from parent to child ({!patch_image}).  A group element
    is named by its index in group order ({!perms}). *)

val canonical_winner : t -> Config.t -> int * perm list
(** The winner's index and the coset of {!canonical_minimizers}, bit for
    bit, computed without building a key tree: candidates are compared
    lazily in the order [compare] visits their key trees, and the
    comparison stops at the first difference.  The only allocation is
    one array of store states per call plus the result.  A search does
    not call it at every node: a child whose parent's winner the store
    decided, reached by a transition that left the store untouched,
    inherits that winner ({!canonical_winner_decided}). *)

val canonical_winner_decided : t -> Config.t -> int * perm list * bool
(** {!canonical_winner} with whether the store decided it: every
    comparison of the minimization was settled by the two candidates'
    acted stores, which the key orders before the processes.  Then the
    winner's acted store is strictly below every other element's, so
    the coset is [[perm of the winner]] ({!singleton}), and any
    configuration with the same store that keeps it in its key has the
    same winner and coset, whatever its processes.  Always [false] for a
    one-element group (its answer costs nothing) and for an erased
    store. *)

val singleton : t -> int -> perm list
(** [singleton t g] is the one-element coset of element [g], built once
    per spec. *)

val erases_store : t -> Config.t -> bool
(** Whether [c]'s key drops its store: [erase_dead] and [c] is a
    terminal with no crashed process (see {!standard}). *)

val index : t -> perm -> int
(** The index of a group element given as a permutation. *)

val image_fingerprint : t -> int -> Config.t -> Fingerprint.t
(** [image_fingerprint t g c] folds the key of [c]'s image under element
    [g], slot by slot, with no acted value built: a full re-fold. *)

val patch_image :
  t ->
  int ->
  Fingerprint.t ->
  Config.t ->
  Step.slots ->
  Config.t ->
  Fingerprint.t
(** [patch_image t g fp parent slots child] is [image_fingerprint t g
    child], given [fp = image_fingerprint t g parent] and the slots the
    transition from [parent] to [child] rewrote.  It mixes the touched
    process's control (when it changed) and history entries past the
    shared tail (one on a step; all of them when the process finishes
    and its history is erased), and each touched store slot; a child
    whose store is erased pays its parent's store once. *)

(** {1 Fused action (exposed for property tests)} *)

val compare_acted : t -> perm -> Value.t -> perm -> Value.t -> int
(** [compare_acted t p x q y] has the sign of
    [compare (act t p x) (act t q y)]; neither acted value is built. *)

val fingerprint_acted : t -> perm -> Value.t -> Fingerprint.t
(** [fingerprint_acted t p v = Fingerprint.of_value (act t p v)]; the
    acted value is not built. *)
