(** The search engine: one recursive depth-first search per domain.

    Every search runs here; it starts at {!Search}, and {!run} is
    exported for the tests that need the engine's own knobs,
    [?seq_threshold] and [?max_depth].

    The calling domain is worker 0 and runs the DFS from the root.  At
    [jobs > 1] it spawns [jobs - 1] helper domains from inside that DFS
    once it has claimed [?seq_threshold] states
    ({!default_seq_threshold}), so a small space never pays for a
    domain.  Helpers begin idle.  The domain that keys a node claims
    it, and runs it or hands it off.  A domain hands work to a peer only
    when that peer is idle: each domain owns one hand-off slot, and about
    to run a node it has claimed it offers the node there instead when
    some domain is idle and its slot is empty; an idle domain scans the
    other slots from its own id onward and takes an offer with a
    compare-and-set.  A slot never holds more than one work item, a
    claimed node: its configuration, key, fingerprint, trace, depth and
    sleep set.  Termination is the idle-counter protocol
    (decrement-before-steal).  An idle domain that finds no offer scans
    again at once, or, when [jobs] exceeds
    [Domain.recommended_domain_count ()], after a 50 µs sleep that
    leaves the core to a domain with work.

    {b Visited table.}  Deduplication is claim-once through one
    {!Claim_table}, on the keys of {!Explore.node_key}: an open-addressed
    table of two-lane fingerprint words (effective 124 bits; the birthday
    bound is [stats.collision_bound]), grown by rehashing into a doubled
    array.  Worker 0 claims in it with no lock until it spawns the
    helpers; from then on every claim takes one mutex, spinning briefly
    before it blocks.  The words live in one bigarray, 16 B per slot
    (the stats' [visited_bytes]).

    [~paranoid] runs claim exact canonical keys instead, in an [`Exact]
    table; their collision bound is [0].

    {b Fault budgets.}  [max_crashes] and [max_recoveries] bound the
    crash and recover transitions exactly at any [jobs]: whichever domain
    claims a state expands all of its successors, and the recovery count
    is part of the fingerprint.

    {b Stopping.}  The budget, the deadline, a callback's
    {!Explore.Stop} or other exception and a cycle's back-edge all end
    the search one way: the first cause is recorded, and every domain
    unwinds at its next node or steal attempt.  Every helper is joined
    before {!run} returns.  A budget-truncated search reports exactly
    [max_states] states at any [jobs]: each fresh claim draws its ticket
    inside the claim, and only tickets below the budget count.  A
    claimed node still in a hand-off slot when the search stops is
    counted but never run, so the callbacks may see fewer nodes than
    [states].
    [?deadline] (seconds of wall clock) reads [limited = true],
    [limit_reason = Deadline], and which states were visited before the
    cutoff depends on the schedule.

    {b Determinism.}  On acyclic state graphs (every one-shot bounded
    algorithm in this repository) [states], [transitions], [terminals],
    [hung_terminals], [crashed_terminals], [recovered_terminals],
    [dedup_hits] and [source_skips] are the same at any [jobs]:
    claim-once yields the same claimed-node set however the race for
    claims resolves, and each claimed node contributes an
    expansion that is a pure function of its key.  At one domain the DFS
    visits nodes in canonical sibling preorder, so its witnesses are
    fixed; at more, [max_depth] and the witness traces depend on the
    schedule.

    {b The delta memo.}  A search whose node key is its carried
    fingerprint ({!Explore.claims_carried_fingerprint}) keeps, per domain
    and per process, the fingerprint deltas of the process's last step
    with the process record and invoked object state it was taken at.
    A step of the same record at the same state (compared physically)
    is not taken again: each successor is keyed as the parent's key plus
    its delta and claimed before it is built, so a duplicate costs no
    step and no patch (the stats' [fp_reused] counts these transitions;
    with [fp_patches] they sum to [transitions]).  A fresh successor
    steps the bundle once, and its claimer runs it or hands it off like
    any other claimed node.  The memo is exact, not probabilistic: a step is a pure function
    of the process record and the object's state, and every slot's mix
    under the trivial group depends on that slot alone.  [~paranoid]
    searches keep it, take every step anyway and count a reusable delta
    that disagrees with its patch in [fp_mismatches].

    {b Reductions.}  Symmetry quotienting canonicalizes before the claim,
    so an orbit's members race for a single slot.  Source sets ride
    inside the work items: the claim key is the (canonical configuration,
    canonical relevant sleep) pair, and expansion is
    {!Explore.source_transitions}, a pure function of that pair, so a
    stolen subtree prunes {e identically} to the subtree its owner would
    have explored.  A taken transition is stepped ({!Explore.expand})
    only when the DFS reaches it; a node offered to an idle domain is a
    built configuration, already claimed.  See DESIGN.md, "Source sets under work stealing". *)

val default_seq_threshold : int
(** [4096]: the claimed-state count at which worker 0 spawns its
    helpers.  Below it a search never leaves the calling domain, where
    eager spawning measured 2-8x the cost of the whole search.
    [?seq_threshold] overrides it per call ([0] spawns at the root). *)

val default_max_depth : int
(** [10_000]: the trace-length budget of every search.  A node deeper
    than it is not expanded, and the search reads [limited = true],
    [limit_reason = Max_depth].  [?max_depth] overrides it per call. *)

val run :
  max_states:int ->
  ?max_depth:int ->
  max_crashes:int ->
  max_recoveries:int ->
  ?deadline:float ->
  reduction:Explore.reduction ->
  paranoid:bool ->
  ?seq_threshold:int ->
  find_cycle:bool ->
  jobs:int ->
  on_terminal:(int -> Config.t -> Trace.t -> unit) ->
  on_visit:(int -> Config.t -> Trace.t Lazy.t -> unit) ->
  string ->
  Config.t ->
  Explore.stats * Trace.t option
(** [run ~jobs ~on_terminal ~on_visit label config] — one search.  Both
    callbacks run on the domain that runs the node, with no lock held,
    so once helpers run they run concurrently and must be domain-safe.
    Both receive that domain's id first, in [0 .. jobs - 1] (the calling
    domain is [0]): a caller that keeps one accumulator per id needs no
    lock ({!Search.fold_terminals}).  Either callback may raise
    {!Explore.Stop} to end the search gracefully; any other exception is
    re-raised once every domain has joined.  The search
    knobs mean what the {!Search.options} fields of the same names mean;
    [?max_depth] is {!default_max_depth} unless given.
    [label] names the search in the [explore] observability event.

    Under [~find_cycle] the search runs at one domain whatever [jobs]
    says and also keeps the keys on its DFS stack: the first back-edge
    into the stack ends the search, and its lasso is the returned
    witness.  Otherwise the witness is [None] and a back-edge counts in
    [dedup_hits].  Source sets assume an acyclic graph, so cycle hunting
    passes them off. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element across [jobs] domains
    (static index partition), preserving order.  [f] must be domain-safe.
    The first exception raised (in item order) is re-raised after all
    domains join.  [jobs <= 1] is plain [List.map]. *)
