(** Schedulers: run a configuration to completion under a scheduling policy.

    The scheduler is the paper's adversary.  [Random] draws both the next
    process and the resolution of object nondeterminism from a seeded PRNG,
    so runs are reproducible.  [Round_robin] and [Fixed] resolve object
    nondeterminism by taking the first successor.

    The two fault adversaries make crashes and recoveries events of the
    trace ([Trace.Crash], [Trace.Recover]): [Recover_after] is the
    deterministic script of crashes and recoveries at chosen steps,
    [Recover_random] crashes and recovers at seeded-random points within
    budgets (hence reproducible).  A crashed process never takes another
    step unless recovered, and the run continues with the survivors; a
    recovery keeps the object store's persistent components and restarts
    the process's volatile slot ({!Config.recover}).  With no recoveries
    ([recoveries = []], [max_recoveries = 0]) they are the crash-only
    adversaries.  When no process can run but a recovery is still
    scheduled (or budgeted), the pending recoveries are drained so a
    planned revival is never lost to early termination. *)

type strategy =
  | Round_robin
  | Random of int  (** seed *)
  | Fixed of int list
      (** explicit process schedule; entries naming non-runnable processes
          are skipped; when exhausted, falls back to round-robin *)
  | Priority of int list
      (** always steps the first runnable process in the given order — the
          "solo run" adversary when the list is a single process first *)
  | Only of int list
      (** starve everyone else: schedule only the listed processes
          (round-robin) and stop when none of them can run; if the
          configuration is not fully terminal at that point, the runnable
          non-survivors are reported in [starved] and [completed] is
          false *)
  | Recover_after of {
      crashes : (int * int) list;
      recoveries : (int * int) list;
      seed : int option;
    }
      (** deterministic crash-recovery script: each [(s, p)] in
          [crashes] crashes process [p] just before the [s]-th scheduled
          step (if it is still running); each [(s, p)] in [recoveries]
          recovers process [p] just before the [s]-th scheduled step (if
          it is crashed by then).
          Recoveries whose step never arrives are drained when the run
          would otherwise end.  Scheduling is round-robin, or
          seeded-random when [seed] is given. *)
  | Recover_random of { seed : int; max_crashes : int; max_recoveries : int }
      (** crash-recovery-at-random adversary: seeded-random scheduling;
          before each step, with probability 1/4 each, crashes a random
          running process (while fewer than [max_crashes] crashes have
          been {e injected}) and recovers a random crashed process (while
          fewer than [max_recoveries] recoveries have occurred) *)

type result = {
  final : Config.t;
  trace : Trace.t;
      (** includes [Trace.Crash] / [Trace.Recover] events for the fault
          adversaries *)
  steps : int;  (** scheduled steps (crashes and recoveries are not counted) *)
  completed : bool;
      (** true iff the final configuration is terminal: false when
          [max_steps] was hit first, or when [Only] starved runnable
          processes *)
  starved : int list;
      (** processes that were still runnable when an [Only] run stopped —
          empty for every other strategy and for completed runs *)
}

val run : ?max_steps:int -> strategy -> Config.t -> result
