(** Process programs.

    A program is a free-monad computation whose only effect is invoking one
    atomic operation on one shared object; everything between two [Invoke]s
    is pure local computation.  One [Invoke] is therefore exactly one step of
    the paper's execution model.

    Programs must be deterministic functions of the responses they receive:
    the continuation after a prefix of responses is always the same.  The
    model checker relies on this to canonicalize process states by their
    response histories. *)

type 'a t =
  | Return of 'a
  | Invoke of Store.handle * Op.t * (Value.t -> 'a t)
  | Checkpoint of Value.t * 'a t
      (** see [checkpoint]; prefer the combinator over the constructor *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t

(** [invoke h op] performs one atomic step and returns the response. *)
val invoke : Store.handle -> Op.t -> Value.t t

(** [checkpoint key] declares that the whole remaining computation of this
    process is fully determined by [key]: the simulator replaces the
    process's recorded response history with [key], which is what makes a
    {e non-terminating} loop revisit configurations so that
    [Search.find_cycle] can detect it.

    Soundness requirement: use only in tail position of a top-level process
    program (i.e. the loop is the entire rest of the program) with a [key]
    capturing every live loop variable.  Wait-free algorithms never need
    it — their histories are bounded. *)
val checkpoint : Value.t -> unit t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

(** {1 Iteration combinators} *)

(** [for_ lo hi f] runs [f lo], …, [f (hi-1)] in order ([hi] exclusive). *)
val for_ : int -> int -> (int -> unit t) -> unit t

(** [fold_range lo hi acc f] threads [acc] through [f lo], …, [f (hi-1)]. *)
val fold_range : int -> int -> 'acc -> ('acc -> int -> 'acc t) -> 'acc t

(** [first_some lo hi f] runs [f lo], [f (lo+1)], … and returns the first
    [Some] result, or [None] if every iteration yields [None]. *)
val first_some : int -> int -> (int -> 'a option t) -> 'a option t

val iter_list : ('a -> unit t) -> 'a list -> unit t
val map_list : ('a -> 'b t) -> 'a list -> 'b list t
