(** Protocol abstract interpreter: static footprints, step bounds and DSL
    soundness lints for [Program.t] process programs.

    The explorer's canonicalization assumes every process program is a
    deterministic function of its response history, that [checkpoint] keys
    determine the whole remaining computation, and that protocols only issue
    ops the analysis registry has certified ({!Registry}).  Nothing verified
    those disciplines statically — the analyzer certified object {e models}
    while the protocol layer above them was trusted.  This module closes the
    gap by symbolically executing the free monad over an abstract response
    lattice:

    - object states are pooled per handle and grown to a fixpoint under the
      declared environment alphabet (so responses account for what {e other}
      processes may have written, not just this program's own ops);
    - every [Invoke] continuation is explored once per abstract response
      (branch-set exploration), with bounded widening: response sets, pool
      sizes and walk fuel are capped, and hitting a cap marks the report
      {e widened} — a [Limited], never a wrong [Proved];
    - [Checkpoint] occurrences are memoized by key.  A back-edge into an
      in-progress key ends the path with an [Unbounded] step bound; a
      revisited key is re-walked and its continuation summary (footprint,
      bound, return set) compared against the memoized one — the detectable
      projection of the "tail position, key captures all live loop state"
      discipline of {!Subc_sim.Program.checkpoint}.

    The result per program: its {b static footprint} (every (handle, op) it
    can issue), a {b syntactic step bound} (a wait-freedom witness, or
    [Unbounded] when a checkpoint loop is reachable), and {b lint findings}
    for alphabet/handle/checkpoint/determinism violations.  Footprints feed
    the [analyze --lint] CI gate. *)

open Subc_sim

type protocol = {
  p_name : string;
  p_store : Store.t;  (** the store the program's handles live in *)
  p_program : Value.t Program.t;
}

val protocol : name:string -> store:Store.t -> Value.t Program.t -> protocol

(** One declared object class of the environment: the ops any process may
    issue on objects of [d_kind], and (for unbounded objects registered
    with an op budget, {!Subject.Ops}) how many environment steps the
    abstract state pool explores from the initial state. *)
type decl = { d_kind : string; d_ops : Op.t list; d_depth : int option }

val decl : ?depth:int -> kind:string -> Op.t list -> decl

type step_bound =
  | Bounded of int  (** wait-freedom witness: at most [n] invokes per run *)
  | Unbounded  (** a checkpoint loop (or widening) is reachable *)

val pp_step_bound : Format.formatter -> step_bound -> unit

type lint =
  | Undeclared_handle of { handle : int; kind : string; op : Op.t }
      (** the program invokes an object whose kind no declaration covers —
          its footprint is under-declared *)
  | Op_outside_alphabet of { kind : string; op : Op.t }
      (** op (name, arity) not in the declared alphabet of the kind.
          Matching is by name and arity, not exact arguments: certified
          value-oblivious objects license the token abstraction, and
          protocols legitimately write richer values (views, vectors)
          through declared op shapes. *)
  | Checkpoint_inconsistent of { key : Value.t }
      (** the same checkpoint key was reached with observably different
          remaining computations — the key misses live loop state, or the
          checkpoint was hoisted out of tail position *)
  | Nondet_continuation of { kind : string; op : Op.t; resp : Value.t }
      (** applying an [Invoke] continuation twice to the same response
          produced different programs — the program is not a deterministic
          function of its response history *)

val pp_lint : Format.formatter -> lint -> unit

type report = {
  r_protocol : string;
  r_footprint : (int * string * Op.t) list;
      (** every (handle, kind, op) the program can issue, sorted *)
  r_bound : step_bound;
  r_returns : Value.t list;  (** abstract return-value set, sorted *)
  r_lints : lint list;
  r_widened : bool;
      (** some cap (fuel, pool, branch width) was hit: footprint, bound
          and lints are best-effort, not certificates *)
  r_iterations : int;  (** outer fixpoint iterations until stable *)
}

val pp_report : Format.formatter -> report -> unit

val analyze :
  ?declared:decl list ->
  ?fuel:int ->
  ?max_pool:int ->
  ?max_branch:int ->
  protocol ->
  report
(** Symbolically execute the program to a fixpoint.  [declared] is the
    environment: per-kind op alphabets grown into each handle's abstract
    state pool (omitting it analyzes the program solo — responses then
    only reflect the program's own writes) and the reference the
    handle/alphabet lints check against (no [declared], no such lints).
    Defaults: [fuel = 200_000] walk nodes per iteration, [max_pool = 4096]
    abstract states per handle, [max_branch = 32] responses per invoke. *)
