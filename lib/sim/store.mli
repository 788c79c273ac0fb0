(** The shared memory: an immutable map from object handles to objects.

    Persistence is essential: the model checker branches a configuration into
    all successors without copying, and keeps millions of configurations
    alive simultaneously. *)

type handle = private int

type t

val empty : t

(** [alloc store model] allocates a fresh object in its initial state. *)
val alloc : t -> Obj_model.t -> t * handle

(** [alloc_many store n model] allocates [n] objects of the same class. *)
val alloc_many : t -> int -> Obj_model.t -> t * handle list

(** [state store h] is the current state of object [h]. *)
val state : t -> handle -> Value.t

val kind : t -> handle -> string

(** [kinds store] is the kind of every allocated object, in increasing
    handle order. *)
val kinds : t -> string list

(** [model store h] is the sequential model object [h] was allocated with
    (its state at allocation time, not the current state — pair it with
    {!state}).  Used by {!Explore}'s independence judgment and by the
    static soundness analyzer ([Subc_analysis]). *)
val model : t -> handle -> Obj_model.t

(** [apply store h op] is every (store', response) successor of performing
    [op] on object [h]; the empty list means the invocation hangs. *)
val apply : t -> handle -> Op.t -> (t * Value.t) list

(** [set store h v] replaces object [h]'s state with [v], keeping its
    model.  {!Config.Delta.materialize} replays a chain's patches with
    it. *)
val set : t -> handle -> Value.t -> t

(** [diff old_store new_store] lists the slots whose states changed, in
    increasing handle order.  Both stores must carry the same handle set
    (a configuration and its successor always do).  Physically shared
    slots are skipped, so the diff of a store against itself — or against
    a recovery projection that changed nothing — is [[]] without
    traversal. *)
val diff : t -> t -> (handle * Value.t) list

(** [recover store] applies every object's recovery projection
    ({!Obj_model.persist_state}) to its state — the shared-memory side of a
    crash-recovery transition ({!Config.recover}).  When every object is
    fully persistent (the default) the store is returned physically
    unchanged; otherwise every slot whose projection is a fixed point
    (physically {e or} structurally) keeps its old state value, so
    [diff store (recover store)] lists exactly the slots the crash
    erased, and a recovery's fingerprint patch stays as small as a
    step's. *)
val recover : t -> t

(** [contents store] lists (handle, state) pairs in increasing handle order;
    used for configuration canonicalization. *)
val contents : t -> (int * Value.t) list

(** [iter store f] calls [f handle state] on every allocated object, in
    increasing handle order — the allocation-free counterpart of
    {!contents}, used by the fingerprint layer. *)
val iter : t -> (int -> Value.t -> unit) -> unit

val cardinal : t -> int
(** Number of allocated objects. *)

val states : t -> Value.t array
(** The object states in increasing handle order: random access for
    orbit minimization, which compares every candidate renaming's store
    slot by slot. *)

val pp : Format.formatter -> t -> unit
