(** Lock-free open-addressed claim table.

    The parallel explorer's visited set, reduced to its essence: a
    claim-once membership test over two-lane 126-bit fingerprints with
    no mutex on the hot path.  Slots are [int Atomic.t] words (62
    usable bits per lane after the live/empty/tombstone encoding);
    claiming is a single CAS on the first lane; linear probing resolves
    collisions; capacity grows by appending doubled segments, so there
    is never a stop-the-world rehash.  See the implementation comment
    and DESIGN.md, "The lock-free claim table", for the claim-once
    linearizability argument.

    Two modes: [`Two_lane] stores both fingerprint lanes (effective 124
    bits, ~2^-124 collision odds per pair); [`Folded] stores a single
    mixed word per state (62 bits — half the memory, collision odds
    ~2^-62 per pair, bounded and surfaced by the caller).

    Foldedness is a per-segment property: {!escalate} flips a folded
    table to two-lane mid-run by prepending a two-lane head segment,
    without rehashing the folded tail.  Probes pick their words by the
    segment they are probing, so mixed-mode tables stay claim-once. *)

type t

(** Per-claim instrumentation, accumulated into caller-owned (per-domain)
    mutable fields — no shared counters on the hot path. *)
type opstats = { mutable probes : int; mutable cas_retries : int }

val fresh_opstats : unit -> opstats

val create :
  ?initial_capacity:int -> ?expected_states:int -> [ `Two_lane | `Folded ] -> t
(** [initial_capacity] (default 4096) is rounded up to a power of two,
    minimum 64.  [expected_states] is a sizing hint used when
    [initial_capacity] is absent: the first segment is sized to hold that
    many entries without growing (capped at 2^21 slots, so a loose hint
    cannot pre-allocate unbounded memory).  An explicit
    [initial_capacity] wins over the hint. *)

val claim : t -> opstats -> h1:int -> h2:int -> [ `Fresh | `Dup ]
(** [claim t st ~h1 ~h2] — [`Fresh] for exactly one caller per distinct
    [(h1, h2)] (mod the mode's truncation), [`Dup] for every other.
    Lock-free; safe from any number of domains. *)

val bits : t -> int
(** Effective key width of the table's {e current} mode: 124 (two-lane)
    or 62 (folded).  After an escalation this reports 124 even though
    the folded tail remains — use {!folded_occupancy} for the piecewise
    collision accounting. *)

val is_folded : t -> bool
(** Whether new claims currently land in folded (62-bit) segments. *)

val escalate : t -> unit
(** Flip a folded table to two-lane keys for all future claims: a
    same-size two-lane segment is prepended and future growth produces
    two-lane segments.  Existing folded entries are not rehashed; they
    keep serving probes with folded words.  In-flight claims abort and
    retry through the growth validation path, so claim-once is
    preserved.  Idempotent; no-op on a two-lane table. *)

val occupancy : t -> int
(** Slots consumed (successful claims, aborted ones included). *)

val folded_occupancy : t -> int
(** Slots consumed in folded segments only — the entries still guarded
    by 62-bit words, charged at 2^-62 in the piecewise collision
    bound. *)

val slots : t -> int
(** Total slots across all segments. *)

val memory_bytes : t -> int
(** Analytic memory footprint of the table's arrays and atoms. *)

val fold_key : int -> int -> int
(** The folded mode's key compression: one well-mixed word out of both
    fingerprint lanes.  Exposed so the out-of-core {!Spill_table} keys
    by {e exactly} the same 62-bit representation as a [`Folded] claim
    table. *)

val encode : int -> int
(** Force the live-entry tag (sign bit) onto a lane word: a stored word
    is always negative, distinguishable from empty (0) and tombstone
    (1).  [encode (fold_key h1 h2)] is the on-disk word of the spill
    table. *)
