(** The one way to run a search.

    Every knob of a search lives in one record, {!options}, with
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

    Every entry point below runs the one engine, {!Parallel}: a
    depth-first search on the calling domain that, at [jobs > 1] and once
    the space outgrows {!Parallel.default_seq_threshold} states, shares
    work with [jobs - 1] helper domains whenever one of them is idle.
    Every domain keys a node the same way and claims it in one visited
    table ({!Claim_table}), so the observable counts and verdicts agree
    at any [jobs] (see the determinism notes in {!Parallel});
    [--reduction full] runs at full strength at any [jobs].

    {b Callbacks.}  The engine calls every callback on the domain that
    claimed the node, with no lock held.  Each reachable terminal is seen
    once.  [f] in {!iter_terminals} keeps a serialized contract: that
    entry point wraps it in a lock of its own at [jobs > 1].  Everything
    else runs concurrently once helper domains run and must be
    domain-safe: the predicate of {!check_terminals} (the first witness
    wins through an [Atomic] cell),
    [f] in {!fold_terminals} (which folds one accumulator per domain, so
    [f] needs no lock for its own accumulator), and [f] in
    {!iter_reachable} and {!iter_reachable_by_domain}.  Under
    symmetry one representative per orbit is reported, so checked
    properties must be renaming-invariant.  At one domain the visit order, and so the
    witness a search returns, is fixed; at more it depends on the
    schedule.

    {b Stopping.}  A callback may raise {!Stop} to end the search
    gracefully at any [jobs]: the entry point returns normally, and its
    stats reflect the work done so far.  Any other exception aborts the
    search and is re-raised on the calling domain.

    {b Fingerprints.}  Every search keys a node by a homomorphic
    fingerprint patched from its parent's ({!Explore.node_key}): of its
    orbit winner's image under the reduction's symmetry, or, without
    one, under the trivial group, whose image of a configuration is the
    configuration itself.  So a duplicate claim needs no re-fold, except
    at a node whose winner is not its parent's, which the trivial group
    never has.  Without a reduction (and outside cycle hunting) a step
    that repeats one its domain took at the same process record and
    object state reuses that step's fingerprint deltas instead: its
    children are keyed and claimed before they are built, and a
    duplicate among them is never stepped ({!Parallel}, "The delta
    memo").
    [paranoid] claims exact canonical keys instead and re-folds
    the carried fingerprint at every claimed node: the reference the
    fingerprinted search is checked against. *)

exception Stop
(** Raise from a callback to stop the search gracefully (the same
    exception as {!Explore.Stop}). *)

type options = {
  max_states : int;  (** visited-state budget (default [5_000_000]) *)
  max_crashes : int;  (** crash-fault budget (default [0]) *)
  max_recoveries : int;  (** recovery budget (default [0]) *)
  deadline : float option;  (** wall-clock budget in seconds *)
  reduction : Explore.reduction;  (** default {!Explore.no_reduction} *)
  paranoid : bool;
      (** exact canonical keys, each carried fingerprint re-folded *)
  jobs : int;  (** domains; [<= 1] means the calling domain alone *)
}
(** Every search also bounds its traces at {!Parallel.default_max_depth}
    steps: a deeper node is not expanded, and the search reads
    [limit_reason = Max_depth]. *)

val default : options

(** {1 Builders} *)

val with_max_states : int -> options -> options
val with_max_crashes : int -> options -> options
val with_max_recoveries : int -> options -> options
val with_deadline : float -> options -> options
val with_reduction : Explore.reduction -> options -> options

val with_paranoid : bool -> options -> options

val with_jobs : int -> options -> options
(** Clamped to at least [1]. *)

(** {1 Entry points} *)

val iter_terminals :
  ?options:options ->
  ?seq_threshold:int ->
  Config.t ->
  f:(Config.t -> Trace.t -> unit) ->
  Explore.stats
(** Visit every reachable terminal configuration once, with a witness
    trace; calls of [f] never overlap.

    [?seq_threshold] here and in {!fold_terminals} is the engine's spawn
    threshold ({!Parallel.default_seq_threshold}; [0] spawns the helpers
    at the root), for tests that need helper domains on a small
    space. *)

val fold_terminals :
  ?options:options ->
  ?seq_threshold:int ->
  Config.t ->
  init:(unit -> 'acc) ->
  f:('acc -> Config.t -> Trace.t -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  'acc * Explore.stats
(** Fold every reachable terminal configuration, with a witness trace,
    into one accumulator per domain, and merge them.  A domain calls
    [init ()] at its first terminal and then folds its own terminals
    with [f], concurrently with the other domains and with no lock.
    After every domain has joined, the calling domain merges the
    accumulators in domain order: [merge (merge a0 a1) a2] and so on,
    skipping domains that saw no terminal.  With no terminal at all the
    result is [init ()].  A call of [f] that raises (for instance
    {!Stop}) stores no new accumulator; what it mutated in place stays.
    At one domain the fold visits terminals in the search's fixed
    order. *)

val iter_reachable :
  ?options:options ->
  Config.t ->
  f:(Config.t -> Trace.t Lazy.t -> unit) ->
  Explore.stats
(** Visit {e every} reachable configuration once, with a lazy witness
    trace — forcing it is linear in the depth, so callers that only need
    the trace on failure pay nothing on the common path.  Source sets are
    stripped: reachability consumers want every state, not a reduced
    cover. *)

val iter_reachable_by_domain :
  ?options:options ->
  Config.t ->
  f:(int -> Config.t -> Trace.t Lazy.t -> unit) ->
  Explore.stats
(** {!iter_reachable} with the visiting domain's id, in [0 .. jobs - 1]:
    the calling domain is [0], so a caller can keep one memo or cache per
    id with no lock. *)

val check_terminals :
  ?options:options ->
  Config.t ->
  ok:(Config.t -> bool) ->
  (Explore.stats, Config.t * Trace.t * Explore.stats) result
(** [Ok stats] if [ok] holds on every reachable terminal, else
    [Error (cex, trace, stats)]: the first terminal found where [ok]
    fails, with a witness trace, and the search stops there.  Whether
    one exists is deterministic; at [jobs > 1] which one is returned is
    not. *)

val find_cycle :
  ?options:options -> Config.t -> Trace.t option * Explore.stats
(** Search for an infinite schedule: a configuration reachable from
    itself (modulo symmetry, when enabled — an orbit back-edge extends
    to an infinite run by repeated application of the automorphism).
    Returns the lasso trace (stem to the repeated configuration).
    Always at one domain — cycle detection needs one DFS stack ([jobs] is
    ignored) — and source sets are stripped,
    since skipping transitions at on-stack states could hide back-edges.
    Wait-free algorithms must return [None]. *)
