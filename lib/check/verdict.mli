(** The one shared checker result type.

    Every checker in this library — task conformance, wait-freedom,
    t-resilience, linearizability, refinement, consensus valence — answers
    the same three-way question: the property is {e proved} for the
    instance (the exploration was exhaustive and clean), {e refuted} by a
    concrete counterexample schedule, or the search was {e limited} (a
    state or depth budget truncated it, so there is no verdict).  This
    module gives that answer one concrete type, one pretty-printer, one
    JSON rendering, and one exit-code contract, so the CLI and the bench
    harness stop pattern-matching per-checker shapes.

    Exit-code contract: 0 proved / 1 refuted / 2 limited. *)

open Subc_sim

type stats = {
  explore : Explore.stats option;
      (** the (last) exploration behind the verdict, when there was one *)
  note : string;  (** one-line human-readable summary *)
  metrics : (string * float) list;
      (** auxiliary numbers (solo bounds, outcome counts, reduction
          ratios); rendered into both text and JSON output *)
}

type t =
  | Proved of stats
  | Refuted of { reason : string; trace : Trace.t; stats : stats }
      (** [trace] is the counterexample schedule (crash events included) *)
  | Limited of stats

(** {1 Constructors} *)

val proved :
  ?explore:Explore.stats -> ?metrics:(string * float) list -> string -> t

val refuted :
  ?explore:Explore.stats ->
  ?metrics:(string * float) list ->
  trace:Trace.t ->
  string ->
  t

val limited :
  ?explore:Explore.stats -> ?metrics:(string * float) list -> string -> t

(** {1 Accessors} *)

val stats : t -> stats
val note : t -> string
val is_proved : t -> bool
val is_refuted : t -> bool
val is_limited : t -> bool

val status_string : t -> string
(** ["proved"], ["refuted"], or ["limited"]. *)

(** {1 The exit-code contract} *)

val exit_code : t -> int
(** 0 proved / 1 refuted / 2 limited. *)

val combined_exit : t list -> int
(** For a sweep of checks: 1 if any refuted (conclusive bad news wins),
    else 2 if any limited, else 0. *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** Full rendering: status, note, exploration stats, metrics, and the
    counterexample trace for refutations. *)

val pp_summary : Format.formatter -> t -> unit
(** One line: [STATUS: note]. *)

val to_json : ?name:string -> t -> string
(** One flat JSON object (one line), with the optional [name] under
    ["check"].  Used by the CLI [--json] path and the CI metrics
    artifact. *)
