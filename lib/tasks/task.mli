(** Task specifications (Section 2).

    A task specifies which combinations of output values are allowed, given
    the input value of each participating process.  A task here is a
    decidable predicate over the outcomes of one execution; the model
    checker evaluates it on every reachable terminal configuration, the
    random runners on sampled ones. *)

open Subc_sim

type outcome = {
  proc : int;
  input : Value.t;
  output : Value.t option;  (** [None] — the process never decided *)
}

type t = {
  name : string;
  check : outcome list -> (unit, string Lazy.t) result;
      (** [Error reason] describes the violated property; the reason is
          formatted only when forced ({!explain} forces it) *)
}

(** [outcomes ~inputs config] pairs each process's input with its decision
    in (usually terminal) [config]. *)
val outcomes : inputs:Value.t list -> Config.t -> outcome list

(** [decided os] is the list of outputs that were actually produced. *)
val decided : outcome list -> Value.t list

(** [distinct vs] with duplicates removed (order preserved). *)
val distinct : Value.t list -> Value.t list

(** [satisfies task ~inputs config] — convenience wrapper. *)
val satisfies : t -> inputs:Value.t list -> Config.t -> bool

(** [explain task ~inputs config] is [None] if satisfied, or the reason. *)
val explain : t -> inputs:Value.t list -> Config.t -> string option

(** {1 The tasks of the paper} *)

(** Consensus: validity + agreement. *)
val consensus : t

(** [set_consensus k]: validity + at-most-[k] distinct outputs
    (k-agreement).  [set_consensus 1 = consensus]. *)
val set_consensus : int -> t

(** Election: consensus where inputs are the participants' identifiers. *)
val election : t

(** [set_election k]: k-set consensus over identifiers. *)
val set_election : int -> t

(** [strong_set_election k]: [set_election k] plus Self-Election — if some
    process decides on [j], then process [j] decides on itself.  (When [j]
    never decides, the property is judged on the processes that did.) *)
val strong_set_election : int -> t

(** [renaming ~bound]: outputs are pairwise-distinct names in [0, bound). *)
val renaming : bound:int -> t

(** [all_decided]: every process produced an output (wait-freedom of the
    run itself — useful combined with others). *)
val all_decided : t

(** [conj t1 t2] checks both. *)
val conj : t -> t -> t
