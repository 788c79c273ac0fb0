(** Exhaustive state-space exploration (model checking): the key,
    expansion and counting machinery of the search engine ({!Parallel},
    one depth-first search per domain).  Searches start at {!Search};
    the knobs named below are {!Search.options} fields.

    A search explores {e all} interleavings of process steps {e and} all
    resolutions of object nondeterminism, by depth-first search over
    configurations.  Every search keys a node one way ({!node_key}) and
    claims it in one visited table ({!Claim_table}).  On the symmetry-off lanes the key is
    the homomorphic fingerprint ({!Fingerprint.hom_of_config}) that every
    search folds once at the root and then carries, {e patched} from
    parent to child through the slots each transition rewrote
    ({!Step.slots}) — O(1) per transition.  It agrees with [Config.key]
    equality (sound because programs are deterministic functions of their
    response histories), and the two-lane table keeps 124 of its bits
    (collision odds ~2^-124 per pair).  Under symmetry the key is the
    same sum taken of the orbit winner's image
    ({!Symmetry.image_fingerprint}), carried and patched the same way
    under the parent's winner, and re-folded only at a node whose winner
    differs.  Pass [~paranoid:true] to claim the
    exact canonical key instead — collisions impossible, memory
    proportional to key size.  The paranoid search still carries the
    fingerprint and re-folds it at every claimed node ({!cross_check}),
    so it is the reference the fingerprinted search is checked against.

    Crash faults are part of the transition relation: with [~max_crashes:f]
    the search also branches on crashing any running process, as long as
    fewer than [f] processes have crashed so far — so a property checked
    with budget [f] holds under {e every} interleaving {e and} every crash
    pattern of at most [f] crashes.  (The budget needs no extra memoization
    state: crashed processes are part of the configuration key.)

    Recovery faults extend the model to crash-recovery: with
    [~max_recoveries:r] the search additionally branches on recovering any
    crashed process ({!Config.recover} — persistent object state survives,
    the victim's program restarts), as long as fewer than [r] recoveries
    have happened in total.  A configuration with no running process is
    still reported as a terminal even when recover transitions remain (the
    adversary may choose never to recover) {e and} is then expanded through
    them.  The recovery budget is derivable from the configuration key too:
    each process carries its recovery count, which the key and fingerprint
    include.  A recover transition is dependent on every crash and
    recovery, and on a step of another process unless both orders reach
    the same configurations (checked on the configuration itself), so
    the source-set reduction prunes around it only where that diamond
    closes.

    {1 Reductions}

    Two sound, opt-in reductions shrink the search (see DESIGN.md for the
    soundness arguments):

    - {b Symmetry quotienting} ([reduction.symmetry]): configurations are
      memoized by the canonical representative of their orbit under a
      process-renaming group ({!Symmetry.t}), so schedules differing only
      in the identity of symmetric processes collapse.  Visited states drop
      by up to the group order; the spec must be a true automorphism group
      for the instance.  That obligation is discharged mechanically by the
      static soundness analyzer ([Subc_analysis], CLI [analyze]), which
      certifies equivariance of every registered object model under its
      declared group, and empirically by the cross-validation suite
      ([test_reduction]); invariance of the {e checked property} under
      renaming remains out of the analyzer's scope and stays a caller
      obligation.  Sound for terminal checking, reachability, and cycle
      detection.

    - {b Source sets} ([reduction.source_sets]): a partial-order reduction
      that skips transitions covered by an independent sibling branch (two
      transitions are independent when they involve distinct processes and
      distinct objects; same-object independence is the semantic judgment
      {!op_independent}).  The visited key is the canonical
      {e (configuration, sleep set)} pair and expansion is a deterministic
      function of that pair ({!source_successors}), so the reduction is
      claim-once safe: a search runs it at full strength at any [jobs]
      and reproduces the one-domain counts bit-for-bit.  Terminals carry an empty relevant sleep and key by
      state alone, so terminal verdicts {e and} terminal counts are
      preserved exactly.  The judgment's purity, equivariance and closure
      assumptions are certified over each object's reachable state space
      by [Subc_analysis].  Assumes an acyclic state graph (true for all
      one-shot bounded algorithms); the entry points that hunt cycles or
      enumerate all reachable states ([Search.find_cycle],
      [Search.iter_reachable]) force source sets off.

    For the bounded one-shot algorithms of the paper the state space is
    finite and exploration is complete: a property checked here is a proof
    for that instance size. *)

type limit_reason =
  | No_limit
  | Max_states  (** the state budget was exhausted; search aborted *)
  | Max_depth  (** some branch was pruned at the depth bound *)
  | Deadline  (** the wall-clock budget ([?deadline]) expired; search aborted *)

val pp_limit_reason : Format.formatter -> limit_reason -> unit

(** Raised to end a search early.  A callback of any entry point may
    raise it (re-exported as [Search.Stop]) to stop the search
    gracefully; the search catches it and returns the stats of the work
    done so far. *)
exception Stop

(** The counters a search keeps, one record per domain, summed after
    the join except [max_depth], which takes the maximum.  Every
    schedule-independent figure of {!stats} is one of them, and every
    domain updates them through the helpers below at the same points of
    an expansion — the determinism contract rests on this one
    definition.  The fields from [diamonds] on are the domain's work
    figures: its commute cache's ({!add_commute}), its claim probes, its
    steals and its lost steal races. *)
type counters = {
  mutable states : int;
  mutable transitions : int;
  mutable terminals : int;
  mutable hung_terminals : int;
  mutable crashed_terminals : int;
  mutable recovered_terminals : int;
  mutable max_depth : int;
  mutable dedup_hits : int;
  mutable source_skips : int;
  mutable fp_patches : int;
  mutable fp_refolds : int;
  mutable fp_mismatches : int;
  mutable diamonds : int;
  mutable memo_hits : int;
  mutable memo_evictions : int;
  mutable probes : int;
  mutable steals : int;
  mutable cas_retries : int;
}

val fresh_counters : unit -> counters

val add_counters : counters -> counters -> unit
(** [add_counters t c] merges [c] into [t]: every counter summed,
    [max_depth] the maximum. *)

val count_terminal : counters -> Config.t -> bool
(** [count_terminal c config] classifies a freshly claimed node: when no
    process of [config] can run it counts a terminal (and a hung,
    crashed or recovered one, as [config] says) and returns [true].  A
    terminal may still have recover successors; it is reported either
    way. *)

val check_fp_mismatches : engine:string -> counters -> unit
(** Fail with [Invalid_argument], naming [engine] (the search's label),
    if any paranoid cross-check disagreed. *)

type stats = {
  states : int;
      (** distinct canonical (configuration, sleep) nodes visited; equals
          distinct configurations whenever source sets are off *)
  transitions : int;
  terminals : int;  (** distinct terminal configurations *)
  hung_terminals : int;  (** terminals in which some process hung *)
  crashed_terminals : int;  (** terminals in which some process crashed *)
  recovered_terminals : int;
      (** terminals in which some process had recovered at least once *)
  max_depth : int;
  dedup_hits : int;  (** transitions into an already-visited node *)
  source_skips : int;
      (** transitions skipped by the source-set reduction (deterministic:
          a per-node function of the canonical key, summed over nodes) *)
  collision_bound : float;
      (** birthday bound on the probability that {e any} fingerprint
          collision merged two distinct states this search
          (n(n-1)/2 · 2^-{!Claim_table.bits}; exactly 0.0 under
          [~paranoid]) *)
  limited : bool;
      (** true iff the search was truncated — it is then {e not} a proof;
          [limit_reason] says why *)
  limit_reason : limit_reason;
  frontier_bytes : int;
      (** estimated peak unique retention of the search frontier, in
          bytes: one frame of words per level of each domain's DFS stack
          at [max_depth], plus one per domain for its hand-off slot
          (which holds at most one work item) once helpers ran.  An
          estimate for memory accounting, not an allocator
          measurement. *)
  fp_patches : int;  (** carried fingerprints patched, one per transition *)
  fp_refolds : int;
      (** fingerprints folded from scratch: the root's, each symmetry
          node whose winner differs from its parent's, and every claimed
          node under [~paranoid] *)
  diamonds : int;  (** commutation judgments computed ({!op_independent}) *)
  memo_hits : int;  (** commutation judgments found in a domain's memo *)
  memo_evictions : int;
      (** judgments the full memo could not keep ({!commute_cache}) *)
  probes : int;  (** visited-table slots probed by the claims *)
  steals : int;  (** work items taken from a peer's hand-off slot *)
  cas_retries : int;  (** steal attempts lost to another taker *)
  visited_bytes : int;
      (** bytes of the visited table's word array at the end
          ({!Claim_table.memory_bytes}) *)
}

val pp_stats : Format.formatter -> stats -> unit

val stats_fields : stats -> (string * Subc_obs.Sink.field) list
(** The JSON fields of [stats], the search's outcome: one per record
    field up to [frontier_bytes], under its own name ([limit_reason] as
    {!pp_limit_reason} prints it).  The work figures after it are not
    encoded; {!Parallel.run} adds them to the process totals
    ([Subc_obs.Metrics]). *)

val collision_bound : bits:int -> states:int -> float
(** The birthday bound above, exposed for the bench tables:
    [min 1 (n(n-1)/2 · 2^-bits)]. *)

val table_bound : paranoid:bool -> states:int -> float
(** The [collision_bound] of a search: [0.0] under [~paranoid], else the
    bound at {!Claim_table.bits}. *)

val stats_of_counters :
  counters ->
  collision_bound:float ->
  limit_reason:limit_reason ->
  frontier_bytes:int ->
  visited_bytes:int ->
  stats

(** Which reductions to apply.  The default ({!no_reduction}) reproduces
    the plain exhaustive search exactly. *)
type reduction = { symmetry : Symmetry.t option; source_sets : bool }

val no_reduction : reduction
val with_symmetry : Symmetry.t -> reduction
val full_reduction : Symmetry.t -> reduction
(** Symmetry quotienting {e and} source sets. *)

val source_only : reduction
(** Source sets without symmetry
    ([{ symmetry = None; source_sets = true }]). *)

(** Soundness certificates.  The reductions above rest on trusted
    declarations (the symmetry spec is an automorphism group, the
    independence judgment's purity/equivariance/closure assumptions hold).
    A {!Certificate.t} records that a tool has mechanically discharged
    those obligations; the only minting site outside tests is
    [Subc_analysis.Analyzer.certify], which refuses unless every analyzer
    check proves.  Callers that want a checked reduction construct it
    through {!certified_reduction} instead of the bare record, making
    "fast but trust-me" and "fast and checked" distinct types of evidence
    at the call site. *)
module Certificate : sig
  type t

  (** [attest ~tool ~subject ~obligations] mints a certificate.  Reserved
      for analysis tools that have actually discharged the named
      obligations — constructing one by hand defeats the point. *)
  val attest : tool:string -> subject:string -> obligations:string list -> t

  val tool : t -> string
  val subject : t -> string
  val obligations : t -> string list
  val pp : Format.formatter -> t -> unit
end

(** [certified_reduction ~certificate sym] — a reduction that demanded a
    certificate before enabling itself; [source_sets] defaults to [true]
    (the certificate covers the independence judgment too). *)
val certified_reduction :
  certificate:Certificate.t ->
  ?source_sets:bool ->
  Symmetry.t option ->
  reduction

(** [op_independent model st a b] — the explorer's conditional-independence
    judgment for two operations on one object in state [st]: both orders
    yield the same final state and responses under every resolution of
    nondeterminism, and neither order turns a completing invocation into a
    hang.  The judgment itself is pure; each exploration memoizes it in a
    bounded per-search cache keyed by (kind, state, op pair) — there is no
    process-global table, so concurrent explorations on separate domains
    never share mutable state.  The memoization assumes [apply] is pure
    and that equal [kind] strings name behaviourally equal models.
    Exposed so the soundness analyzer ([Subc_analysis]) can certify
    exactly the judgment the source-set reduction consumes. *)
val op_independent : Obj_model.t -> Value.t -> Op.t -> Op.t -> bool

val pp_reduction : Format.formatter -> reduction -> unit

val cross_check :
  counters ->
  paranoid:bool ->
  reduction ->
  Fingerprint.t ->
  int ->
  Config.t ->
  unit
(** [cross_check c ~paranoid reduction fp win config]: under [~paranoid],
    re-fold the node (counted in [fp_refolds]) and count a mismatch when
    the carried incremental fingerprint disagrees (in
    [fp_mismatches]).  The re-fold is the configuration's
    homomorphic fingerprint with symmetry off, and the key of its image
    under the winner [win] ({!Symmetry.image_fingerprint}) under
    symmetry. *)

val child_fingerprint :
  counters ->
  reduction ->
  Fingerprint.t ->
  int ->
  Config.t ->
  Step.slots ->
  Config.t ->
  Fingerprint.t
(** [child_fingerprint c reduction fp win parent slots child] — the
    carried fingerprint of a successor, counted in [fp_patches]:
    {!patched_fingerprint} of the parent's with symmetry off, and under
    symmetry {!Symmetry.patch_image} of the parent's image key under the
    parent's winner [win]. *)

(** {1 Source-set machinery}

    Run by every search domain, so all observe the same protocol: visited keys are canonical
    (configuration, sleep) pairs, and expansion is a deterministic
    function of the key. *)

(** A transition identity, in concrete process coordinates: a process
    step is identified by (process, object handle) — all nondeterministic
    outcomes of one invocation form one transition bundle — a crash and a
    recovery by their victim. *)
type tr = Tstep of int * int | Tcrash of int | Trecover of int

(** The bounded per-exploration (per-domain) memo for {!op_independent},
    with local counters (diamond computations, memo hits, dropped
    inserts).  Callers running
    concurrent expansions must use one cache per domain. *)
type commute_cache

val commute_cache : ?bound:int -> unit -> commute_cache
(** [?bound] caps the memo's entries (default [2^16]; clamped at [0]).
    Past the bound new results are recomputed instead of cached and each
    dropped insert counts as a memo eviction. *)

val add_commute : counters -> commute_cache -> unit
(** [add_commute c cache] adds the cache's diamonds, memo hits and memo
    evictions to [c]'s.  A search adds each domain's cache to that
    domain's counters when the domain finishes. *)

val source_fingerprint :
  reduction ->
  max_crashes:int ->
  Config.t ->
  sleep:tr list ->
  Fingerprint.t * Symmetry.perm option * tr list
(** [source_fingerprint reduction ~max_crashes config ~sleep] — the
    visited key of the (configuration, sleep) node as bare lanes, for
    callers that claim in a two-lane {!Claim_table} directly: {!node_key}
    of a node with winner [-1] carrying {!root_fingerprint}, so the
    canonical state key extended with the canonical enabled-restricted
    sleep set (the extension is the identity when the relevant sleep is
    empty, so source-set-off searches and terminal states key exactly as
    plain state keys).  Also returns the canonicalizing renaming and the
    restricted concrete sleep — the inputs {!source_successors} needs. *)

val source_fingerprint_from :
  Fingerprint.t ->
  reduction ->
  max_crashes:int ->
  Config.t ->
  sleep:tr list ->
  Fingerprint.t * Symmetry.perm option * tr list
(** {!source_fingerprint} when the bare state fingerprint is already in
    hand — a search carries it patched from the parent's, so the claim
    key costs O(|relevant sleep|) instead of a re-fold: {!node_key} of a
    node with winner [-1] carrying it.  Symmetry off only: under
    symmetry a winner-[-1] node re-folds its winner's image. *)

val node_key :
  paranoid:bool ->
  counters ->
  reduction ->
  max_crashes:int ->
  Fingerprint.t ->
  int ->
  Config.t Lazy.t ->
  sleep:tr list ->
  Fingerprint.key * Symmetry.perm option * tr list * Fingerprint.t * int
(** [node_key ~paranoid c reduction ~max_crashes fp win config ~sleep] —
    the claim key of a search node, as every search computes it, with
    the canonicalizing renaming, the restricted sleep, and the node's
    carried fingerprint and winner index, which its children are patched
    from ({!child_fingerprint}).

    With symmetry off, the key is the carried fingerprint [fp] (extended
    with the relevant sleep), without forcing [config] unless the sleep
    restriction needs it; under [paranoid], the configuration's exact
    key, extended the same way.  The winner index is [-1].

    Under symmetry, [fp] is the node's image key under its parent's
    winner [win] ([-1] at the root).  The orbit minimization picks the
    node's winner and coset; when the winner is [win] the carried
    fingerprint is the node's key, and otherwise the node's winner's
    image is re-folded (counted in [fp_refolds]).  That fingerprint,
    extended with the canonical relevant sleep, is the claim key — or,
    under [paranoid], the exact canonical key from
    {!Symmetry.canonical_minimizers} is, and the fingerprint is carried
    for {!cross_check}. *)

val root_fingerprint : counters -> reduction -> Config.t -> Fingerprint.t
(** [root_fingerprint c reduction root] — the carried fingerprint a
    search starts from, with winner [-1]: the root's homomorphic re-fold
    (counted in [fp_refolds]) with symmetry off.  Under symmetry no key
    reads it, because {!node_key} folds the image of a node whose winner
    is not [win]. *)

val patched_fingerprint :
  Config.t -> Fingerprint.t -> Step.slots -> Config.t -> Fingerprint.t
(** [patched_fingerprint parent fp slots child] — the child's homomorphic
    fingerprint in O(|slots|): rewrite the touched proc slot's
    contribution and each touched store slot's.  Agrees {e exactly} with
    [Fingerprint.hom_of_config child] (the successor differs from the
    parent in precisely the listed slots; the per-lane combine is an
    abelian group). *)

(** One enabled transition bundle of an expansion: its identity, the
    sleep set its children inherit (concrete coordinates of the expanded
    configuration), and its successor configurations with their trace
    events and rewritten slots ({!Step.slots} — the fingerprint patch's
    inputs). *)
type succ_group = {
  g_tr : tr;
  g_sleep : tr list;
  g_succs : (Config.t * Trace.event * Step.slots) list;
}

val source_successors :
  commute_cache ->
  reduction ->
  pi:Symmetry.perm option ->
  max_crashes:int ->
  max_recoveries:int ->
  Config.t ->
  sleep:tr list ->
  succ_group list * int
(** The source-set expansion of a (configuration, sleep) node: enabled
    transition bundles in {e canonical} sibling order (sorted by image
    under [pi]), minus those asleep (their count is returned — the
    [source_skips] contribution), each paired with its children's sleep
    set.  [sleep] must be the restricted sleep returned by
    {!node_key}/{!source_fingerprint} for the same configuration.
    Deterministic per canonical key — the property that makes the
    reduction safe under work stealing. *)


(** [state_key reduction config] — the plain visited-set key of [config]
    under [reduction] (no sleep extension): {!node_key} of a node with
    winner [-1] carrying {!root_fingerprint} and an empty sleep.  The
    homomorphic fingerprint of the canonical orbit representative
    ([Fingerprint.Fp]), or the exact canonical key under
    [~paranoid:true] ([Fingerprint.Exact]).  Exposed for the
    cross-validation tests. *)
val state_key : ?paranoid:bool -> reduction -> Config.t -> Fingerprint.key
