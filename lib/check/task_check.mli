(** Task-conformance checking: exhaustive (model checker) and randomized
    (seeded adversaries), plus decision-distribution measurement for the
    experiment tables. *)

open Subc_sim
module Task = Subc_tasks.Task

(** [check store ~programs ~inputs ~task] checks [task] on every reachable
    terminal configuration (under every crash pattern within
    [options.max_crashes], and every crash-recovery pattern within
    [options.max_recoveries] recoveries): [Proved] when exhaustive and
    clean, [Refuted] with the violating schedule, [Limited] when the
    search was truncated — including by [options.deadline] seconds of
    wall clock.  All search knobs come from the {!Subc_sim.Search.options}
    record ([?options], default {!Subc_sim.Search.default});
    [options.jobs > 1] runs the exploration across that many domains
    ({!Subc_sim.Parallel}).  The verdict status is deterministic, the
    counterexample schedule (on refutation) may differ between runs. *)
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

(** [sample store ~programs ~inputs ~task ~seeds] runs once per seed under
    the random adversary. *)
val sample :
  ?max_steps:int ->
  Store.t ->
  programs:Value.t Program.t list ->
  inputs:Value.t list ->
  task:Task.t ->
  seeds:int list ->
  sample_stats

val pp_sample_stats : Format.formatter -> sample_stats -> unit

(** [sample_crashed store ~programs ~inputs ~task ~seeds] — fault
    injection: each seeded run executes under the {!Runner.Crash_random}
    adversary, which crashes up to [max_crashes] random processes (default
    n−1) at random points.  Crashes are events of the trace, so the task is
    evaluated against the true partial-outcome history and a violating
    schedule replays deterministically, crashes included.  Wait-free
    algorithms must keep their safety properties whatever the crash
    pattern, because a crashed process is indistinguishable from a slow
    one. *)
val sample_crashed :
  ?max_crashes:int ->
  Store.t ->
  programs:Subc_sim.Value.t Subc_sim.Program.t list ->
  inputs:Subc_sim.Value.t list ->
  task:Task.t ->
  seeds:int list ->
  sample_stats
