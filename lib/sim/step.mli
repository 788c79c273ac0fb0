(** Operational semantics: one process takes one atomic step.

    Stepping a running process applies its pending operation to the store.
    Nondeterministic objects yield several successor configurations; an
    empty successor set marks the process as hung — it will never receive a
    response, and no other process can detect this (Section 2's
    "hangs the system" semantics). *)

type event = {
  proc : int;
  obj : int;  (** handle of the object operated on *)
  obj_kind : string;
  op : Op.t;
  resp : Value.t option;  (** [None] when the invocation hung *)
}

val pp_event : Format.formatter -> event -> unit

(** The slots a transition rewrote: exactly one process slot, and at most
    the listed store slots (increasing handle order; [[]] when the store
    is physically shared with the parent).  The explorer patches these
    into the parent's homomorphic fingerprint
    ({!Fingerprint.patch_proc_by} / {!Fingerprint.patch_stores_by})
    instead of re-folding the whole configuration.  (No engine builds
    {!Config.Delta} links; the benchmark's per-layer probe does.) *)
type slots = { sl_proc : int; sl_store : (Store.handle * Value.t) list }

(** [step config i] is every successor of letting process [i] take one step.
    @raise Invalid_argument if process [i] cannot step. *)
val step : Config.t -> int -> (Config.t * event) list

(** [step_slots config i] is {!step} with each successor's rewritten
    {!slots} attached. *)
val step_slots : Config.t -> int -> (Config.t * event * slots) list

(** [crash_slots config i] is the successor obtained by crashing running
    process [i], with its {!slots}: the victim's proc slot alone.
    @raise Invalid_argument if process [i] is not running. *)
val crash_slots : Config.t -> int -> Config.t * slots

(** [recover_slots config i] is the successor obtained by recovering
    crashed process [i] ({!Config.recover}), with its {!slots}: the
    recoverer's proc slot plus the store slots its persistence projection
    changed ([[]] for fully persistent stores).
    @raise Invalid_argument if process [i] is not crashed. *)
val recover_slots : Config.t -> int -> Config.t * slots

(** [crash_successors_slots config] is every successor obtained by
    crashing one running process ({!crash_slots}), paired with the
    victim's index.  The crash is a transition of the operational
    semantics: the model checker uses it to quantify over crash patterns
    (bounded by its crash budget). *)
val crash_successors_slots : Config.t -> (Config.t * int * slots) list

(** [recover_successors_slots config] is every successor obtained by
    recovering one crashed process ({!recover_slots}), paired with the
    recoverer's index.  Like crashes, recoveries are transitions of the
    operational semantics, bounded by the model checker's recovery
    budget. *)
val recover_successors_slots : Config.t -> (Config.t * int * slots) list
