(* The visited table of every search: an open-addressed set of two-lane
   fingerprints in one flat [Bigarray.Array1].  Every domain of a search
   claims in it: the calling domain alone until it spawns helpers, then
   every helper too.

   A claim table answers one question, once per state: "am I the first
   to reach this key?"  It supports exactly one operation, [claim_key],
   which returns a ticket to exactly one caller per distinct key and [-1]
   to every other.  The ticket is the number of keys claimed before this
   one, so the tickets of a table are 0, 1, 2, ... with no gap and no
   repeat: a search's state budget is a comparison against it.

   {b Slot encoding.}  Slot [i] is words [2i] (lane 1) and [2i + 1]
   (lane 2).  A stored lane keeps the low 62 bits of its fingerprint lane
   and forces the sign bit on ([encode]), so a live lane-1 word is never
   0 and 0 marks an empty slot.  Dropping one bit per lane leaves a
   124-bit key ([bits]).  Linear probing starts at the low bits of
   lane 1.

   {b Private, then shared.}  A table is private to the domain that
   created it, which claims with no lock at all (none exists yet), until
   [share] gives it one.  From then on every claim — the probe, the
   write of a fresh key, its ticket and any growth it triggers — is one
   critical section under that lock.  A second claimer of a key
   therefore runs after the first one's write and finds its words.
   [lock] is a plain field: the owner sets it before it starts the
   domains that will claim too, and [Domain.spawn] orders that write
   before everything the new domain does.

   {b Spin, then block.}  A shared claim holds the lock for about a
   hundred nanoseconds, while [Mutex.lock]'s contended path leaves the
   runtime and parks the domain in the kernel, which costs microseconds
   to both sides.  So [acquire] first retries [Mutex.try_lock] up to
   [spins] times with [Domain.cpu_relax] between, and blocks only when
   the holder has kept the lock for longer than that (it was preempted,
   or is growing the table).

   {b Growth.}  When a fresh key would take occupancy past 3/4 of the
   capacity, the claimer doubles the array and re-inserts every live
   slot, still inside the critical section; claims after it probe the one
   new array.  Each key is moved once per doubling, O(1) amortized per
   claim.

   {b Backings.}  The heap table is [Bigarray.Array1.create] filled with
   0.  The spill table maps a file created under the spill directory:
   [O_EXCL] under a name unique to the process (an existing file is never
   touched and two tables never share storage), unlinked as soon as it
   is mapped (the mapping keeps the inode alive, the directory stays
   clean whatever happens to the process, and the kernel reclaims the
   blocks once the array is collected).  A new mapping reads as zeros,
   since [Unix.map_file] extends the file with holes.  Its pages are
   file-backed and evictable, so [memory_bytes] counts only bookkeeping
   and [spill_bytes] the mapped file: 16 B per slot.

   {b Exact keys.}  A [`Exact] table (the [~paranoid] searches) holds
   whole canonical keys in a [Fingerprint.Ktbl], private or shared alike;
   its ticket is the table's length before the key went in.  No
   collision is possible, and no word array is allocated or mapped. *)

module A = Bigarray.Array1

type words = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

type words_table = {
  spill : string option; (* the spill directory; [None] on the heap *)
  mutable arr : words; (* [2 * (mask + 1)] words *)
  mutable mask : int;
  mutable count : int;
  mutable limit : int; (* 3/4 of the capacity *)
}

type table = Words of words_table | Keys of unit Fingerprint.Ktbl.t
type t = {
  (* [None] while private; set once, by the owner, before other domains
     claim. *)
  mutable lock : Mutex.t option;
  table : table;
}

type opstats = { mutable probes : int }

let fresh_opstats () = { probes = 0 }
let bits = 124
let[@inline] encode h = h lor min_int

(* Names spill files; shared by every table in the process. *)
let file_lock = Mutex.create ()
let next_file = ref 0

let file_number () =
  Mutex.protect file_lock (fun () ->
      incr next_file;
      !next_file)

let m_spill_bytes = Subc_obs.Metrics.counter "visited.spill_bytes"

(* Map [n] zero words from a fresh unlinked file in [dir], adding their
   bytes to [visited.spill_bytes].  The name carries the process id and
   a process-wide counter, and [O_EXCL] refuses any file already there (a
   taken name — say, one left by a dead process with a recycled pid —
   just draws the next counter value).  The fd is closed right away: the
   mapping survives it. *)
let map_words dir n : words =
  let rec create_file () =
    let path =
      Filename.concat dir
        (Printf.sprintf "subc-%d-%d.spill" (Unix.getpid ()) (file_number ()))
    in
    match Unix.openfile path [ O_RDWR; O_CREAT; O_EXCL ] 0o600 with
    | fd -> (path, fd)
    | exception Unix.Unix_error (EEXIST, _, _) -> create_file ()
  in
  let path, fd = create_file () in
  let words =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Unix.close fd)
      (fun () ->
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| n |]))
  in
  Subc_obs.Metrics.add m_spill_bytes (8 * n);
  words

let alloc spill cap =
  match spill with
  | Some dir -> map_words dir (2 * cap)
  | None ->
    let a = A.create Bigarray.int Bigarray.c_layout (2 * cap) in
    A.fill a 0;
    a

let limit_of cap = cap - (cap / 4)

let create_words ?(initial_capacity = 64) spill =
  Option.iter
    (fun dir ->
      try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ())
    spill;
  let cap =
    let rec up c = if c >= initial_capacity then c else up (c * 2) in
    up 64
  in
  Words
    { spill; arr = alloc spill cap; mask = cap - 1; count = 0;
      limit = limit_of cap }

let rec free_slot arr mask j =
  if A.unsafe_get arr (2 * j) = 0 then j
  else free_slot arr mask ((j + 1) land mask)

(* Double the capacity and re-insert every live slot.  Keys are distinct,
   so re-insertion only looks for the first empty slot. *)
let grow t =
  let old = t.arr and old_cap = t.mask + 1 in
  let cap = 2 * old_cap in
  let arr = alloc t.spill cap in
  let mask = cap - 1 in
  for i = 0 to old_cap - 1 do
    let w1 = A.unsafe_get old (2 * i) in
    if w1 <> 0 then begin
      let j = free_slot arr mask (w1 land mask) in
      A.unsafe_set arr (2 * j) w1;
      A.unsafe_set arr ((2 * j) + 1) (A.unsafe_get old ((2 * i) + 1))
    end
  done;
  t.arr <- arr;
  t.mask <- mask;
  t.limit <- limit_of cap

(* The critical section of a claim: the key's ticket, or [-1].
   Occupancy stays below capacity, so every probe sequence meets an empty
   slot. *)
let rec insert t st w1 w2 =
  let arr = t.arr and mask = t.mask in
  let rec go i =
    st.probes <- st.probes + 1;
    let a = A.unsafe_get arr (2 * i) in
    if a = 0 then
      if t.count >= t.limit then begin
        grow t;
        insert t st w1 w2
      end
      else begin
        A.unsafe_set arr (2 * i) w1;
        A.unsafe_set arr ((2 * i) + 1) w2;
        let ticket = t.count in
        t.count <- ticket + 1;
        ticket
      end
    else if a = w1 && A.unsafe_get arr ((2 * i) + 1) = w2 then -1
    else go ((i + 1) land mask)
  in
  go (w1 land mask)

(* The same for a whole key: one hash of the key tree, since [replace]
   grows the table only for a new key. *)
let insert_key keys key =
  let n = Fingerprint.Ktbl.length keys in
  Fingerprint.Ktbl.replace keys key ();
  if Fingerprint.Ktbl.length keys > n then n else -1

let create ?initial_capacity ?spill kind =
  {
    lock = None;
    table =
      (match kind with
      | `Two_lane -> create_words ?initial_capacity spill
      | `Exact -> Keys (Fingerprint.Ktbl.create 64));
  }

let share t = if Option.is_none t.lock then t.lock <- Some (Mutex.create ())

(* [Mutex.try_lock] attempts before a shared claim blocks.  Two domains
   claiming ~1M keys/s on two cores (Alg 5 k=5, jobs 2) fail about one
   first try in three, but exhaust 100 tries about once in 8 000 claims:
   a holder that outlasts them is descheduled or growing the table, and
   spinning on would only burn the core it needs.  Sized on that search:
   0 tries was the slowest, 10 to 1 000 sat within the run-to-run spread
   (DESIGN.md, "The visited table"). *)
let spins = 100

(* Take [m], retrying [Mutex.try_lock] [n] times before blocking. *)
let rec acquire m n =
  if not (Mutex.try_lock m) then
    if n = 0 then Mutex.lock m
    else begin
      Domain.cpu_relax ();
      acquire m (n - 1)
    end

(* [f x] alone in the table: bare while the table is private, under
   its lock once it is shared.  Only growth raises (a spill file that
   cannot be created or mapped), leaving the table unchanged and the lock
   released. *)
let exclusive t f x =
  match t.lock with
  | None -> f x
  | Some m -> (
    acquire m spins;
    match f x with
    | r ->
      Mutex.unlock m;
      r
    | exception e ->
      Mutex.unlock m;
      raise e)

(* [exclusive] of [insert], spelled out: the hot path allocates no
   closure. *)
let[@inline] claim_words t w st w1 w2 =
  match t.lock with
  | None -> insert w st w1 w2
  | Some m -> (
    acquire m spins;
    match insert w st w1 w2 with
    | r ->
      Mutex.unlock m;
      r
    | exception e ->
      Mutex.unlock m;
      raise e)

let claim t st ~h1 ~h2 =
  match t.table with
  | Words w ->
    if claim_words t w st (encode h1) (encode h2) >= 0 then `Fresh else `Dup
  | Keys _ -> invalid_arg "Claim_table.claim: an exact-key table"

let claim_key t st key =
  match (t.table, key) with
  | Words w, Fingerprint.Fp fp ->
    claim_words t w st (encode fp.Fingerprint.h1) (encode fp.Fingerprint.h2)
  | Words _, Fingerprint.Exact _ ->
    invalid_arg "Claim_table.claim_key: an exact key in a two-lane table"
  | Keys keys, key -> exclusive t (insert_key keys) key

let occupancy t =
  exclusive t
    (function Words w -> w.count | Keys k -> Fingerprint.Ktbl.length k)
    t.table

let slots t = exclusive t (function Words w -> w.mask + 1 | Keys _ -> 0) t.table

(* Heap-resident bytes: the word array on the heap, only the table
   record and the bigarray's custom block when the words are mapped.
   Exact keys are whole key trees, not counted. *)
let memory_bytes t =
  match t.table with
  | Words { spill = None; _ } -> 16 * slots t
  | Words { spill = Some _; _ } -> 8 * 16
  | Keys _ -> 0

let spill_bytes t =
  match t.table with
  | Words { spill = Some _; _ } -> 16 * slots t
  | Words { spill = None; _ } | Keys _ -> 0
