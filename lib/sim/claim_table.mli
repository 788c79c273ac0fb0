(** The visited table of every search, sequential or parallel.

    A claim-once membership test over search-node keys.  A [`Two_lane]
    table is an open-addressed table of [encode]d fingerprint words in
    one flat [Bigarray.Array1] (two words per slot, effective 124-bit
    keys, ~2^-124 collision odds per pair); growth doubles the array and
    re-inserts every entry.  An [`Exact] table, the [~paranoid] one,
    holds whole canonical keys instead.

    A table is private to the domain that created it, which claims with
    no lock, until {!share}; from then on every claim runs under one
    mutex, taken by a short spin before it blocks, so the table is safe
    from any number of domains.  A fresh claim draws a ticket inside that
    same exclusion: the number of keys claimed before it.  See the
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

val share : t -> unit
(** [share t] gives [t] a mutex that every later claim takes; a private
    table has none.  Until it is called only the creating domain may
    claim in or query [t].  The creator calls it before it starts any
    other domain that claims in [t]: [Domain.spawn] then publishes it to
    that domain.  Sharing a shared table changes nothing. *)

val claim_key : t -> opstats -> Fingerprint.key -> int
(** [claim_key t st key] — for exactly one caller per distinct key, the
    key's ticket: the number of distinct keys claimed before it, so a
    table's tickets are [0, 1, 2, ...], each drawn once.  [-1] for every
    other caller.  A two-lane table takes [Fingerprint.Fp]
    keys and tells them apart modulo bit 62 of each lane, which {!bits}
    drops; an [`Exact] table takes keys of either kind and compares them
    exactly.  Counts its probes into [st].  A growth that cannot map its
    spill file raises [Unix.Unix_error] with the table unchanged and the
    lock released.
    @raise Invalid_argument on an [Exact] key in a two-lane table. *)

val claim : t -> opstats -> h1:int -> h2:int -> [ `Fresh | `Dup ]
(** [claim t st ~h1 ~h2] is [claim_key] of the two-lane key [(h1, h2)]:
    [`Fresh] for its one ticket holder, [`Dup] for every other caller.
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
