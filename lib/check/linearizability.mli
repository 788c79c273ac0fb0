(** Linearizability checking of recorded histories (Section 2's
    definition).

    A history is a set of high-level operations with real-time intervals
    measured in base steps: an operation's invocation is its first base
    step, its response its last.  (This matches the paper's own usage — the
    linearization of Algorithm 5 orders invocations by their first write.)

    [check] searches for a sequential ordering of all completed operations
    plus a subset of the uncompleted ones such that (1) if [op] completes
    before [op'] begins then [op] precedes [op'], and (2) replaying the
    ordering through the sequential specification reproduces every
    completed operation's response.  The search is a DFS over
    minimal-candidate choices with memoization on (linearized set,
    specification state). *)

open Subc_sim

type op_record = {
  proc : int;
  op : Op.t;  (** the high-level operation *)
  result : Value.t option;  (** [None] — never completed *)
  inv : int;  (** index of the first base step in the trace *)
  res : int;  (** index of the last base step *)
}

(** [history ~ops final trace] builds the one-operation-per-process history
    of a harness run: process [i] performed [ops i]; its result is its
    decision in [final]; its interval spans its steps in [trace].
    Processes that took no steps are omitted. *)
val history : ops:(int -> Op.t) -> Config.t -> Trace.t -> op_record list

(** [check ~spec history] returns a witness linearization (the operations
    in linearized order), or [None] if the history is not linearizable with
    respect to [spec]. *)
val check : spec:Obj_model.t -> op_record list -> op_record list option

val pp_history : Format.formatter -> op_record list -> unit

(** [check_harness store ~programs ~ops ~spec] explores every terminal of
    the harness (under every crash pattern within [options.max_crashes]
    and every crash-recovery pattern within [options.max_recoveries]
    recoveries), builds each execution's history with {!history}, and
    checks it with {!check}: [Proved] when every history linearizes,
    [Refuted] with the offending history and its schedule (the search
    stops at the first one, so its statistics cover part of the space),
    [Limited] when
    the search was truncated — including by [options.deadline] seconds of
    wall clock.  Search knobs come from the {!Subc_sim.Search.options}
    record ([?options]).

    A symmetry [options.reduction] checks one representative per orbit,
    which is sound only when [spec] is equivariant under the chosen
    renamings (the same caller obligation as {!Subc_sim.Symmetry}).

    [options.jobs] explores across that many domains
    ({!Subc_sim.Parallel}); terminal callbacks are serialized, so the
    verdict status, and the history count of a proof, are deterministic
    — the offending history reported on refutation, and how much of the
    space was explored before it, may differ between runs. *)
val check_harness :
  ?options:Search.options ->
  Store.t ->
  programs:Value.t Program.t list ->
  ops:(int -> Op.t) ->
  spec:Obj_model.t ->
  Verdict.t
