(** Multicore state-space exploration.

    Runs the same transition relation as {!Explore} across [jobs] domains.
    Searches start at {!Search}, which runs this engine at [jobs > 1];
    {!run} is exported for the tests and benches that need the engine at
    [jobs = 1] or its work-distribution knobs.

    A bounded breadth-first pass on the calling domain seeds a frontier of
    roughly [4 * jobs] work items ([?seed_target] overrides), distributed
    round-robin across per-domain Chase–Lev work-stealing deques
    ({!Ws_deque}).  Each domain runs depth-first search over its own
    deque; an empty domain steals from a random victim's top with a
    lock-free CAS.  Termination is the idle-counter protocol
    (decrement-before-steal), with no mutex or condition variable
    anywhere on the work path.

    {b Visited table.}  Deduplication is claim-once through one
    {!Claim_table}, the table the sequential explorer claims in too, on
    the same keys ({!Explore.node_key}): an open-addressed table of
    two-lane fingerprint words (effective 124 bits; the birthday bound is
    [stats.collision_bound]), every claim under one mutex, grown by
    rehashing into a doubled array.  {!visited} picks its backing:

    - [Heap] ([Search.default]'s): the words live in a heap bigarray.
    - [Spill dir]: the words live in mmap'd files under [dir] (created if
      absent; the files are unlinked once mapped), so heap residency
      drops to bookkeeping.  The mapped bytes are added to the
      [visited.spill_bytes] counter.  [Unix.Unix_error] is raised if
      [dir] cannot be created or a file cannot be mapped.

    [~paranoid] runs claim exact canonical keys instead, in an [`Exact]
    table, whatever [visited] says; their collision bound is [0].

    A search node is claimed exactly once, so every node is expanded at
    most once and the explored graph is exactly the sequential one.

    {b Fault budgets.}  [?max_crashes] and [?max_recoveries] mirror the
    sequential explorer exactly — budget exactness holds at any [jobs]
    because recover successors are pushed by whichever domain claims the
    state, and the recovery count is part of the fingerprint.

    {b Deadline.}  [?deadline] (seconds of wall clock) stops the search
    through the first-cause stop protocol; the merged stats then read
    [limited = true], [limit_reason = Deadline].  Which states were
    visited before the cutoff is scheduling-dependent — a deadline run
    is only ever a {e Limited} answer.

    {b Determinism.}  On acyclic state graphs (every one-shot bounded
    algorithm in this repository) the merged [states], [transitions],
    [terminals], [hung_terminals], [crashed_terminals],
    [recovered_terminals], [dedup_hits] and [source_skips] equal the
    sequential explorer's — at any [jobs], under either backing:
    claim-once yields the same claimed-node set however the race for
    claims resolves, and each claimed node contributes an expansion that
    is a pure function of the node.  [max_depth] and the particular
    witness traces are racy; checkers built on this module return
    deterministic {e verdicts} with possibly different (equally valid)
    witnesses.  Back-edges count as [dedup_hits] ([Search.find_cycle]
    hunts non-termination with the sequential DFS).

    {b Reductions.}  Both reductions compose with work stealing.
    Symmetry quotienting canonicalizes before the claim, so an orbit's
    members race for a single slot.  Source sets ride inside the work
    items: each item carries the sleep set computed at its parent, the
    claim key is the (canonical configuration, canonical relevant sleep)
    pair ({!Explore.source_key}), and expansion calls the same
    {!Explore.source_successors} as the sequential explorer — a pure
    function of the claimed pair under the canonical sibling order.  A
    stolen subtree therefore prunes {e identically} to the subtree the
    victim would have explored, and [source_skips] is deterministic.
    See DESIGN.md, "Source sets under work stealing". *)

(** Where the visited table keeps its words. *)
type visited = Heap | Spill of string

val pp_visited : Format.formatter -> visited -> unit

val default_seq_threshold : int
(** The auto-sequential fallback threshold, [4096]: the seeding pass
    (which runs the identical claim/expand path on the calling domain)
    keeps going until it has counted this many states before any worker
    domain is spawned, so small state spaces — where E21 measures the
    spawn + steal machinery at 2-8x the cost of the whole search —
    complete sequentially with identical stats.  [?seq_threshold]
    overrides it per call ([0] restores the historical eager spawn).
    Passing [?seed_target] disables the fallback: those callers want the
    domains regardless of size. *)

val run :
  visited:visited ->
  max_states:int ->
  max_depth:int ->
  max_crashes:int ->
  max_recoveries:int ->
  ?deadline:float ->
  ?expected_states:int ->
  reduction:Explore.reduction ->
  paranoid:bool ->
  ?seed_target:int ->
  ?seq_threshold:int ->
  jobs:int ->
  on_terminal:(Config.t -> Trace.t -> unit) ->
  on_visit:(Config.t -> Trace.t Lazy.t -> unit) ->
  string ->
  Config.t ->
  Explore.stats
(** [run ~jobs ~on_terminal ~on_visit label config] — one parallel
    search, with the callback contract of {!Search} ([on_terminal]
    serialized under a lock, [on_visit] concurrent; {!Explore.Stop} ends
    the search gracefully).  The search knobs mean what the
    {!Search.options} fields of the same names mean; only the engine's
    own test knobs are optional.  [label] names the search in the
    [parallel] observability event.  [?seed_target] sets the width the
    seeding pass
    aims for before handing the frontier to the domains (default
    [4 * jobs], clamped to at least [1]; tests force it to [1] to
    maximize steal pressure). *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element across [jobs] domains
    (static index partition), preserving order.  [f] must be domain-safe.
    The first exception raised (in item order) is re-raised after all
    domains join.  [jobs <= 1] is plain [List.map]. *)
