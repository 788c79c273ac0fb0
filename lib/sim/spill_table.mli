(** Out-of-core visited table: 62-bit folded fingerprint words in mmap'd
    files.

    The visited table of [Parallel]'s [Spill] mode: the claim-once
    visited set lives in file-backed mapped memory instead of the OCaml
    heap, bounding exploration by disk rather than RAM.  Keys are
    compressed to exactly the folded claim table's 62-bit word
    ([Claim_table.encode (Claim_table.fold_key h1 h2)]), so the
    collision characteristics — ~2^-62 per pair, surfaced through the
    caller's [collision_bound] — match [--visited compressed].

    Segment files are created under the spill directory with [O_EXCL]
    under names unique to the process, so no file already in the
    directory is touched and two tables never share storage.  Each file
    is unlinked immediately after mapping, so the directory stays clean
    even if the process dies; the kernel reclaims the blocks when the
    table is collected.  Growth maps a doubled segment and chains it
    (read-only probes of older segments, claims in the head) — no
    rehash, no stop-the-world.

    Claims are serialized by an internal mutex, so any number of worker
    domains may claim concurrently; the out-of-core trade is claim-path
    serialization for a near-zero heap footprint ({!memory_bytes} counts
    only bookkeeping; the mapped bytes are {!spill_bytes} and
    evictable). *)

type t

val create :
  ?initial_capacity:int ->
  ?expected_states:int ->
  dir:string ->
  unit ->
  t
(** Create a spill table under [dir] (created if absent).
    [initial_capacity] (rounded up to a power of two, minimum 64) wins
    over the [expected_states] sizing hint; the default first segment
    holds 2^16 slots (512 KiB of file). *)

val claim : t -> Claim_table.opstats -> h1:int -> h2:int -> [ `Fresh | `Dup ]
(** Claim-once on the folded word of [(h1, h2)]: [`Fresh] for the first
    caller, [`Dup] for every other — including distinct fingerprints
    whose 62-bit folds collide, which is the mode's documented ~2^-62
    per-pair miss risk.  Probe counts accumulate into the caller's
    {!Claim_table.opstats}. *)

val claim_word : t -> Claim_table.opstats -> int -> [ `Fresh | `Dup ]
(** Claim a pre-folded (already [encode]d) word directly.  Test hook:
    forcing two distinct logical keys onto one word exercises the
    collision path deterministically. *)

val occupancy : t -> int
(** Live entries across all segments. *)

val segments : t -> int
(** Mapped segments (growth events + 1). *)

val memory_bytes : t -> int
(** Heap-resident bookkeeping only — the RSS floor of the table.  The
    mapped pages are file-backed and evictable and are deliberately
    excluded; see {!spill_bytes}. *)

val spill_bytes : t -> int
(** Total mapped bytes across all segments (the on-disk footprint). *)
