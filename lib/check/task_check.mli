(** The exhaustive checking pipeline every task-plus-termination check
    shares, task conformance on top of it, and randomized checking
    (seeded adversaries) with decision-distribution measurement for the
    experiment tables. *)

open Subc_sim
module Task = Subc_tasks.Task

(** {1 The checking pipeline}

    Every exhaustive task-plus-termination check in this library
    ({!Valence.consensus_verdict}, {!Progress.check_t_resilient}, and the
    classic tables built on them, recoverable consensus included)
    runs one two-phase pipeline and returns a {!Verdict.t}:

    + {e terminal phase} — every reachable terminal configuration must
      pass the check; the first violation is [Refuted] with the schedule
      that reaches it, so {!Subc_sim.Replay.final} of the witness ends at
      a terminal configuration;
    + {e termination phase} — no schedule may run forever; a cycle is
      [Refuted] with its lasso (the stem to the repeated configuration),
      so {!Subc_sim.Replay.final} of the witness ends at a configuration
      where some process is still running.

    A truncated phase is [Limited]; both clean is [Proved].  Search knobs
    come from the {!Subc_sim.Search.options} record ([?options], default
    {!Subc_sim.Search.default}): the budgets bound both phases, and
    [options.jobs > 1] spreads the terminal phase across that many
    domains ({!Subc_sim.Parallel}); the cycle search stays sequential.
    The verdict status is deterministic, the witness (on refutation) may
    differ between runs at [jobs > 1]. *)

(** [verdict config ~explain ~proved] runs both phases.  [explain c] is
    [None] when terminal [c] is fine and [Some reason] when it violates
    the property; [proved] is the note of a [Proved] verdict. *)
val verdict :
  ?options:Search.options ->
  Config.t ->
  explain:(Config.t -> string option) ->
  proved:string ->
  Verdict.t

(** [check store ~programs ~inputs ~task] is the terminal phase alone,
    with [task] as the check: [task] holds on every reachable terminal
    configuration, under every crash pattern within
    [options.max_crashes] and every crash-recovery pattern within
    [options.max_recoveries] recoveries.  [options.deadline] (seconds of
    wall clock) truncates gracefully to [Limited]. *)
val check :
  ?options:Search.options ->
  Store.t ->
  programs:Value.t Program.t list ->
  inputs:Value.t list ->
  task:Task.t ->
  Verdict.t

type sample_stats = {
  runs : int;
  violations : int;
  first_violation : (string * Trace.t) option;
  (* Distribution of the number of distinct decided values: entry [d] is
     how many runs decided exactly [d+1] distinct values. *)
  distinct_counts : int array;
}

(** [sample store ~programs ~inputs ~task ~seeds] runs once per seed
    under the random adversary.  With [max_crashes] each run is fault
    injection instead: the {!Runner.Recover_random} adversary, with no
    recovery, crashes up to [max_crashes] random processes at random
    points.  Crashes are events of the trace, so the task is evaluated
    against the true partial-outcome history and a violating schedule
    replays
    deterministically, crashes included.  Wait-free algorithms must keep
    their safety properties whatever the crash pattern, because a crashed
    process is indistinguishable from a slow one. *)
val sample :
  ?max_steps:int ->
  ?max_crashes:int ->
  Store.t ->
  programs:Value.t Program.t list ->
  inputs:Value.t list ->
  task:Task.t ->
  seeds:int list ->
  sample_stats

val pp_sample_stats : Format.formatter -> sample_stats -> unit
