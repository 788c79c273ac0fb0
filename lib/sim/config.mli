(** Configurations.

    A configuration specifies the state of every process and the value of
    every shared object (Section 2).  Process state is the pending program
    continuation plus the history of responses received so far; since
    programs are deterministic functions of their response histories, the
    pair (object states, response histories) canonically identifies a
    configuration, which lets the model checker memoize configurations even
    though continuations are closures.

    Crash faults are first-class: a process may transition to [Crashed], a
    terminal status distinct from [Terminated] (it produced no output) and
    from [Hung] (it was not the victim of an illegal invocation — the
    adversary simply stopped it).  A crashed process never takes another
    step; since a crashed process is indistinguishable from a slow one,
    wait-free safety properties must hold on the surviving outcomes.

    Crash-{e recovery} is equally first-class: a crashed process may
    {!recover} — it restarts its initial program with an empty response
    history (its local state is volatile), while shared objects keep only
    their persistent component ({!Store.recover}; all-persistent by
    default).  The freshly recovered process is [Recovering] until its
    first step; its per-process [recoveries] counter is part of the
    configuration key, so the model checker's recovery budget is derivable
    from the configuration alone. *)

type status =
  | Running of Value.t Program.t
  | Terminated of Value.t  (** the process produced its output value *)
  | Hung  (** the process invoked an operation with no successor *)
  | Crashed  (** the adversary stopped the process; no output *)
  | Recovering of Value.t Program.t
      (** restarted after a crash; behaves as [Running] from its next step *)

type proc = {
  status : status;
  history : Value.t list;  (** responses received, newest first *)
  steps : int;
  recoveries : int;  (** crash-recoveries this process has performed *)
}

type t = {
  store : Store.t;
  procs : proc array;
  programs : Value.t Program.t array;
      (** the initial programs, restarted on recovery; constant along any
          execution, hence excluded from {!key} *)
}

(** [make store programs] starts one process per program; programs that are
    already [Return v] start in the [Terminated v] state. *)
val make : Store.t -> Value.t Program.t list -> t

(** [advance program history] normalizes a continuation: [Return v] becomes
    [Terminated v]; a [Checkpoint] replaces the history with its key. *)
val advance : Value.t Program.t -> Value.t list -> status * Value.t list

val n_procs : t -> int

(** Indices of processes that can still take a step ([Running] or
    [Recovering]). *)
val running : t -> int list

(** A configuration is terminal when no process can take a step (all are
    terminated, hung, or crashed).  Note that under a positive recovery
    budget a terminal configuration with crashed processes still has
    {!recover} transitions: "terminal" means "no process step", and the
    adversary may choose never to recover anyone. *)
val is_terminal : t -> bool

(** [decision c i] is [Some v] iff process [i] terminated with output [v]. *)
val decision : t -> int -> Value.t option

(** All outputs of terminated processes, in process order. *)
val decisions : t -> Value.t list

val any_hung : t -> bool

(** [crash c i] — process [i] crashes: it never steps again (unless
    recovered) and produces no output.  Its response history is cleared (it
    can no longer influence the execution), which lets the model checker
    merge configurations that differ only in where the victim was when it
    died.
    @raise Invalid_argument if process [i] is not running. *)
val crash : t -> int -> t

(** Indices of crashed processes, in increasing order. *)
val crashed : t -> int list

val n_crashed : t -> int
val any_crashed : t -> bool

(** [recover c i] — crashed process [i] restarts its initial program with
    an empty response history and status [Recovering]; the store is
    projected to persistent object state ({!Store.recover}); the process's
    [recoveries] counter increments.
    @raise Invalid_argument if process [i] is not crashed. *)
val recover : t -> int -> t

(** Total crash-recoveries performed across all processes — the recovery
    budget consumed so far, derivable from the configuration. *)
val n_recoveries : t -> int

val any_recovered : t -> bool

(** Canonical key for memoization: encodes object states, process response
    histories, statuses and recovery counters as a single value. *)
val key : t -> Value.t

(** Delta-encoded configurations for compact frontiers.

    A frontier entry is a pointer to its parent plus the slot patches its
    transition rewrote (one process slot, at most a handful of store
    slots — {!Step.slots}), so a work queue of them retains O(1) fresh
    words per entry instead of a copied process array each.  No engine
    uses them; the benchmark's per-layer probe times them.  Chains
    are rebased to a materialized {e root} every {!Delta.rebase_interval}
    links, bounding both chain length and materialization cost. *)
module Delta : sig
  type config := t

  type t

  (** [root c] wraps a materialized configuration; {!materialize} returns
      it physically unchanged. *)
  val root : config -> t

  (** [extend node ~proc_sets ~store_sets] appends one transition's
      patches.  When the chain reaches the rebase interval the result is
      eagerly materialized into a fresh root. *)
  val extend :
    t ->
    proc_sets:(int * proc) list ->
    store_sets:(Store.handle * Value.t) list ->
    t

  (** Replay the chain over its root: one proc-array copy plus one
      {!Store.set} per store patch, oldest-first.  Equals the eagerly
      built configuration up to structural equality (and physical
      equality on untouched slots). *)
  val materialize : t -> config

  (** Links back to the nearest root (0 for a root). *)
  val links : t -> int

  (** Chain length at which {!extend} rebases: 8. *)
  val rebase_interval : int
end

val pp : Format.formatter -> t -> unit
