(** Allocation-lean structural fingerprints of configurations.

    A 126-bit hash (two 63-bit native-int lanes — nothing boxed) of a
    configuration's store contents and process array ({!hom_of_config}),
    replacing the explorer's former per-node
    [Digest.string (Marshal.to_string (Config.key config) [])] pipeline:
    no intermediate [Value.t] key tree, no marshal buffer, no string
    digest.  Two configurations with equal {!Config.key} have equal
    fingerprints; distinct keys collide with probability ~2^-126 per
    pair.  The exact-key path survives behind the explorer's [~paranoid]
    flag ({!key}), and the test suite cross-validates the two. *)

type t = private { h1 : int; h2 : int }

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_hex : t -> string
val pp : Format.formatter -> t -> unit

(** Hashtables keyed by fingerprints. *)
module Tbl : Hashtbl.S with type key = t

val of_value : Value.t -> t
(** Fingerprint of an explicit key tree: the [~paranoid] exact table's
    bucket hash.  No visited key is one; keys are the homomorphic
    fingerprints below, of a configuration ({!hom_of_config}) or of its
    orbit winner's image ([Symmetry.image_fingerprint]). *)

(** {1 Streaming}

    The fold behind {!of_value}, for callers that walk a value tree
    without materializing it.  A walk that emits, node by node in
    pre-order, the header each node's constructor calls for — and
    {!feed_value} for any subtree it does not need to rewrite — yields
    exactly {!of_value} of the tree it walked. *)

type ctx

val create : unit -> ctx
val finish : ctx -> t

val feed_value : ctx -> Value.t -> unit
(** A whole subtree. *)

val feed_int : ctx -> int -> unit
(** The leaf [Value.Int i]. *)

val feed_pair : ctx -> unit
(** Header of [Value.Pair (a, b)]; feed [a], then [b]. *)

val feed_vec : ctx -> int -> unit
(** Header of a [Value.Vec] of the given length; feed its entries. *)

val feed_tag : ctx -> string -> unit
(** Header of [Value.Tag (s, x)]; feed [x]. *)

val extend : t -> int -> t
(** [extend fp x] mixes one more word into both lanes of a finished
    fingerprint.  The explorer keys (configuration, sleep set) pairs by
    folding each canonical sleep entry onto the state fingerprint —
    O(sleep) per extension, no configuration re-traversal. *)

(** {1 Homomorphic (group-combinable) fingerprints}

    The incrementally patchable hash of configurations: each
    (slot, content) pair contributes an independently finalized mix, and
    mixes are combined per lane with an abelian group operation (addition
    modulo 2^63 / XOR).  Because the combination is invertible, a step
    that rewrites one process slot and one object slot turns the parent
    fingerprint into the child's in O(1) — subtract the old
    contributions, add the new ones — instead of re-folding the whole
    configuration.  Distinct {!Config.key}s collide with probability
    ~2^-126 per pair. *)

val hom_add : t -> t -> t
(** Group combine: lane 1 adds modulo 2^63, lane 2 XORs.  Associative,
    commutative, inverted by {!hom_sub}. *)

val hom_sub : t -> t -> t
(** Group inverse combine: [hom_sub (hom_add fp m) m = fp]. *)

val mix_store_slot : int -> Value.t -> t
(** Contribution of one store slot [(handle, object state)]. *)

val mix_proc_slot : int -> Config.proc -> t
(** Contribution of one process slot, distinguishing exactly what
    {!Config.key} does (status kind, decided value, recovery count,
    response history — continuations and step counts erased). *)

val hom_base : n_procs:int -> t
(** Contribution of the configuration shape itself (process count). *)

val hom_of_config : Config.t -> t
(** [hom_base ⊕ Σ mix_store_slot ⊕ Σ mix_proc_slot] — the full re-fold;
    the root of every incremental run, and the [~paranoid]
    cross-validation target for patched fingerprints, and the key of a
    symmetry-off configuration.  Agrees with {!Config.key} equality:
    continuations erased, histories included. *)

val hom_patch_proc : t -> int -> Config.proc -> Config.proc -> t
(** [hom_patch_proc fp i old new_] rewrites process slot [i]'s
    contribution: subtract [mix_proc_slot i old], add
    [mix_proc_slot i new_]. *)

(** {2 Mixes through a value feeder}

    The mixes above with every value fed through [feed] instead of
    {!feed_value}.  [Symmetry] passes its fused action, so a slot of a
    configuration's image under a renaming mixes exactly as the acted
    slot would, without the acted value being built: this is how a
    symmetry key is folded and patched.  Each [_by] function with
    [feed_value] is its plain counterpart. *)

val mix_store_slot_by : (ctx -> Value.t -> unit) -> int -> Value.t -> t

val mix_proc_slot_by :
  (ctx -> Value.t -> unit) -> int -> Config.proc -> Value.t list -> t
(** [mix_proc_slot_by feed i p history] is slot [i]'s contribution of
    [p] with [history] in place of [p]'s own (a symmetry key passes the
    live history, empty for a finished process). *)

val erased_store : t
(** The contribution that stands for a whole store a symmetry key
    erases (a terminal configuration's with no crashed process). *)

(** {2 Patches through one context}

    A transition rewrites one process slot and a few store slots.  Its
    patch opens one context on the parent's fingerprint ({!patching}),
    rewrites each slot's contribution in it, and allocates only the
    result ({!patched}). *)

val patching : t -> ctx
(** A context whose sum starts at the given fingerprint. *)

val patched : ctx -> t
(** The context's sum: the patched fingerprint. *)

val patch_proc_by :
  ctx ->
  (ctx -> Value.t -> unit) ->
  int ->
  Config.proc ->
  Value.t list ->
  Config.proc ->
  Value.t list ->
  unit
(** [patch_proc_by ctx feed i old oldh new_ newh] rewrites slot [i]'s
    contribution from [mix_proc_slot_by feed i old oldh] to
    [mix_proc_slot_by feed i new_ newh], mixing only the history
    entries past the lists' shared tail. *)

val patch_stores_by :
  ctx -> (ctx -> Value.t -> unit) -> Store.t -> (Store.handle * Value.t) list -> unit
(** [patch_stores_by ctx feed old slots] rewrites each listed store
    slot's contribution from its state in [old] to the listed state
    (a [Step.slots]' [sl_store] against the parent's store). *)

(** {1 Visited-set keys} *)

(** [Fp] is the fast path; [Exact] keeps the full canonical key (the
    [~paranoid] mode: collisions impossible, memory proportional to key
    size). *)
type key = Fp of t | Exact of Value.t

val key_equal : key -> key -> bool
val key_hash : key -> int

(** Hashtables keyed by {!key}. *)
module Ktbl : Hashtbl.S with type key = key
