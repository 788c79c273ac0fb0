(** Exhaustive protocol-space refutation (experiment E14).

    Lemma 38 quantifies over {e all} algorithms; a model checker refutes
    one protocol at a time.  For {e bounded} protocol classes, however, the
    quantifier itself is finite and can be discharged by enumeration: this
    module generates every 2-process consensus protocol in a syntactic
    class over one WRN{_k} object plus announcement registers, model-checks
    each, and reports how many solve consensus.

    The class [straight_line ~k ~ops]: each process announces its value,
    then performs [ops] WRN invocations with protocol-chosen constant
    indices, writing its own marker; it finally decides Own or Other
    (reading the other's announcement) as a protocol-chosen function of
    the abstracted response pattern (⊥ / non-⊥ per invocation).

    Results (machine-checked): for k = 2 the class contains working
    protocols (the swap protocol is one of them); for k ≥ 3 {e none} of
    the protocols in the class solves consensus — Lemma 38's conclusion,
    proved exhaustively for this class rather than sampled. *)


type protocol

(** [enumerate ~k ~ops] — all protocols of the class ([ops] WRN steps per
    process). *)
val enumerate : k:int -> ops:int -> protocol list

val describe : protocol -> string

(** [solves_consensus ~k protocol] — exhaustive verdict for inputs (0,1). *)
val solves_consensus : k:int -> protocol -> bool

type census = {
  total : int;
  solving : int;
  example_solver : protocol option;
}

(** [census ~k ~ops] — enumerate and check the whole class. *)
val census : k:int -> ops:int -> unit -> census
