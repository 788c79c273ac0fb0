(** Universal immutable value domain.

    Object states, operation arguments and operation responses all live in
    this single type, so that the simulator can treat every shared object
    uniformly and so that whole configurations can be canonicalized (hashed
    and compared) by the model checker.  [Bot] is the paper's distinguished
    value {m \bot}. *)

type t =
  | Bot                   (** the paper's {m \bot} (also: "no value yet") *)
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string         (** symbolic atom, e.g. [Sym "opened"] *)
  | Pair of t * t
  | Vec of t list         (** fixed-size vector / array *)
  | Tag of string * t     (** tagged value, e.g. [Tag ("win", Int 3)] *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Construction helpers} *)

val int : int -> t
val bool : bool -> t
val sym : string -> t
val pair : t -> t -> t
val vec : t list -> t

(** [bot_vec n] is a vector of [n] copies of [Bot]. *)
val bot_vec : int -> t

val of_int_list : int list -> t

(** {1 Destruction helpers}

    These raise [Type_error] when the value has the wrong shape; shape errors
    are programming errors in algorithm code, never modeled nondeterminism. *)

exception Type_error of string * t

val to_int : t -> int
val to_bool : t -> bool
val to_pair : t -> t * t
val to_vec : t -> t list

(** [vec_get v i] is the [i]-th component of vector [v]. *)
val vec_get : t -> int -> t

(** [vec_set v i x] is [v] with component [i] replaced by [x] (functional
    update). *)
val vec_set : t -> int -> t -> t

val vec_length : t -> int

(** [is_bot v] is [true] iff [v = Bot]. *)
val is_bot : t -> bool
