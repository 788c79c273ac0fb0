(** A checked instance: a store, one program per process, the process
    symmetry it declares, and its property.

    The paper's families are built at a size by
    [Subc_analysis.Registry], beside the analysis subjects that certify
    their reductions; the CLI, the test suite and the experiment tables
    all read them there.  This module holds the record and the property
    builders those families share. *)

open Subc_sim

(** What the instance must satisfy, as the CLI reports and samples it. *)
type property =
  | Task of { inputs : Value.t list; task : Subc_tasks.Task.t }
      (** [task] on every terminal, process [i] proposing [inputs]'s
          [i]-th value *)
  | Other of string  (** a property with no task, by name *)

type t = {
  store : Store.t;
  programs : Value.t Program.t list;
  symmetry : Symmetry.t option;
      (** the process symmetry the instance declares, if any *)
  property : property;
  explain : Config.t -> string option;
      (** the terminal predicate in {!Task_check.verdict}'s shape:
          [Some reason] on a terminal that violates the property *)
  checker : Search.options -> Verdict.t;
      (** the checker entry point that proves or refutes the property
          under a search's options *)
}

(** The proposal convention: process [j] proposes [tok j] = [100 + j]. *)
val tok : int -> Value.t

(** [inputs n] is [tok 0 .. tok (n - 1)]. *)
val inputs : int -> Value.t list

(** The initial configuration. *)
val root : t -> Config.t

(** [task ~symmetry store programs ~inputs ~task]: [task] on [inputs],
    proved by {!Task_check.check}. *)
val task :
  symmetry:Symmetry.t option ->
  Store.t ->
  Value.t Program.t list ->
  inputs:Value.t list ->
  task:Subc_tasks.Task.t ->
  t

(** [wrn ~k ~symmetry store programs]: process [i] calls WRN(i, tok i) on
    an implementation of the one-shot WRN_k object, proved linearizable
    by {!Linearizability.check_harness} (property ["linearizable"]).  A
    terminal does not record when each operation ran, so [explain] drops
    the real-time order: some sequential order of the operations gives
    every recorded response.  [explain] memoizes per response vector and
    must not be called concurrently. *)
val wrn : k:int -> symmetry:Symmetry.t -> Store.t -> Value.t Program.t list -> t

(** [terminating ~symmetry store programs]: a protocol with no task of
    its own; no process hangs and every schedule terminates, proved by
    {!Progress.check_t_resilient} at the search's crash budget (property
    ["terminating"]). *)
val terminating :
  symmetry:Symmetry.t option -> Store.t -> Value.t Program.t list -> t
