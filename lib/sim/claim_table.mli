(** The visited table of every search, sequential or parallel.

    A claim-once membership test over search-node keys.  A [`Two_lane]
    table is an open-addressed table of [encode]d fingerprint words in
    one flat [Bigarray.Array1] (two words per slot, effective 124-bit
    keys, ~2^-124 collision odds per pair); growth doubles the array and
    re-inserts every entry.  An [`Exact] table, the [~paranoid] one,
    holds whole canonical keys instead.  Every claim runs under one
    mutex, so the table is safe from any number of domains.  See the
    implementation comment and DESIGN.md, "The visited table".

    A two-lane table has two backings: the heap, or a file mapped from a
    spill directory ([?spill]), 16 B per slot on disk. *)

type t

(** Per-claim instrumentation, accumulated into caller-owned (per-domain)
    mutable fields. *)
type opstats = { mutable probes : int }

val fresh_opstats : unit -> opstats

val create :
  ?initial_capacity:int ->
  ?spill:string ->
  [ `Two_lane | `Exact ] ->
  t
(** [initial_capacity] (default 64) is rounded up to a power of two,
    minimum 64.

    [?spill dir] maps the words from files under [dir] (created if
    absent) instead of the heap.  Each file is created with [O_EXCL]
    under a name unique to the process, so no file already there is
    touched, and is unlinked once mapped, so nothing persists; the mapped
    bytes are added to the [visited.spill_bytes] counter.  Raises
    [Unix.Unix_error] if [dir] cannot be created or a file cannot be
    created or mapped.

    An [`Exact] table ignores every sizing and backing argument. *)

val claim_key : t -> opstats -> Fingerprint.key -> [ `Fresh | `Dup ]
(** [claim_key t st key] — [`Fresh] for exactly one caller per distinct
    key, [`Dup] for every other.  A two-lane table takes [Fingerprint.Fp]
    keys and tells them apart modulo bit 62 of each lane, which {!bits}
    drops; an [`Exact] table takes keys of either kind and compares them
    exactly.  Counts its probes into [st].  A growth that cannot map its
    spill file raises [Unix.Unix_error] with the table unchanged and the
    lock released.
    @raise Invalid_argument on an [Exact] key in a two-lane table. *)

val claim : t -> opstats -> h1:int -> h2:int -> [ `Fresh | `Dup ]
(** [claim t st ~h1 ~h2] is [claim_key] of the two-lane key [(h1, h2)].
    @raise Invalid_argument on an [`Exact] table. *)

val bits : int
(** Effective key width of a two-lane table: 124. *)

val occupancy : t -> int
(** Distinct keys claimed. *)

val slots : t -> int
(** Current capacity in slots; [0] for an [`Exact] table. *)

val memory_bytes : t -> int
(** Heap-resident bytes: 16 per slot on the heap; bookkeeping only when
    the words are mapped (the mapped pages are file-backed and
    evictable, see {!spill_bytes}); [0] for an [`Exact] table, whose key
    trees are not counted. *)

val spill_bytes : t -> int
(** Bytes of the mapped spill file (16 per slot); [0] on the heap. *)
