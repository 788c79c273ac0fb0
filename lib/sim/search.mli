(** Unified search options.

    Every explorer and checker entry point used to take the same sprawl
    of optional arguments ([?max_states ?max_depth ?max_crashes
    ?max_recoveries ?deadline ?expected_states ?reduction ?paranoid
    ?jobs ?visited]).  {!options} packs them into one record with
    pipe-friendly [with_*] builders:

    {[
      let opts =
        Search.default
        |> Search.with_max_crashes 1
        |> Search.with_reduction (Explore.full_reduction sym)
        |> Search.with_jobs 4
      in
      Search.iter_terminals ~options:opts config ~f
    ]}

    The entry points here dispatch on [jobs] and [visited]: [jobs > 1],
    or the out-of-core [Parallel.Spill] visited mode (which only the
    parallel engine has), runs the work-stealing {!Parallel} engine;
    otherwise the sequential {!Explore} runs.  Whatever the path, the
    observable counts and verdicts agree (see the determinism notes in
    {!Parallel}); [--reduction full] runs at full strength on both. *)

type options = {
  max_states : int;  (** visited-state budget (default [5_000_000]) *)
  max_depth : int;  (** trace-length budget (default [10_000]) *)
  max_crashes : int;  (** crash-fault budget (default [0]) *)
  max_recoveries : int;  (** recovery budget (default [0]) *)
  deadline : float option;  (** wall-clock budget in seconds *)
  expected_states : int option;  (** visited-table pre-size hint *)
  reduction : Explore.reduction;  (** default {!Explore.no_reduction} *)
  paranoid : bool;  (** exact canonical keys, no fingerprints *)
  fp : Explore.fp_mode option;
      (** fingerprint mode; [None] means [Incremental] *)
  jobs : int;  (** worker domains; [<= 1] means sequential *)
  visited : Parallel.visited option;
      (** parallel visited-table representation; [None] means
          [Lockfree].  [Spill dir] keeps the visited
          set in mmap'd files under [dir] and runs {!Parallel} even at
          [jobs <= 1]. *)
}

val default : options

(** {1 Builders} *)

val with_max_states : int -> options -> options
val with_max_depth : int -> options -> options
val with_max_crashes : int -> options -> options
val with_max_recoveries : int -> options -> options
val with_deadline : float -> options -> options
val with_expected_states : int -> options -> options
val with_reduction : Explore.reduction -> options -> options

val with_paranoid : bool -> options -> options

val with_fp : Explore.fp_mode -> options -> options
(** Pin the fingerprint mode ([Incremental] patches the parent's
    homomorphic hash per step; [Full] re-folds every configuration). *)

val with_jobs : int -> options -> options
(** Clamped to at least [1]. *)

val with_visited : Parallel.visited -> options -> options

val pp : Format.formatter -> options -> unit

(** {1 Entry points}

    Thin dispatchers over {!Explore} (sequential) and {!Parallel}
    (work-stealing); see those modules for callback and determinism
    contracts. *)

val iter_terminals :
  ?options:options -> Config.t -> f:(Config.t -> Trace.t -> unit) -> Explore.stats

val iter_reachable :
  ?options:options ->
  Config.t ->
  f:(Config.t -> Trace.t Lazy.t -> unit) ->
  Explore.stats
(** Source sets are stripped on both paths — reachability consumers want
    every state, not a reduced cover. *)

val find_terminal :
  ?options:options ->
  Config.t ->
  violates:(Config.t -> bool) ->
  (Config.t * Trace.t) option * Explore.stats

val check_terminals :
  ?options:options ->
  Config.t ->
  ok:(Config.t -> bool) ->
  (Explore.stats, Config.t * Trace.t * Explore.stats) result

val find_cycle :
  ?options:options -> Config.t -> Trace.t option * Explore.stats
(** Always sequential — cycle detection needs the DFS stack discipline —
    but honors every other field of [options] ([jobs] and [visited] are
    ignored). *)
