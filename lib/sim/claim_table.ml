(* The visited table of every search: an open-addressed set of two-lane
   fingerprints in one flat [Bigarray.Array1], claimed under one mutex.
   Every domain of a search claims in it: the calling domain alone until
   it spawns helpers, then every helper too.

   A claim table answers one question, once per state: "am I the first
   to reach this key?"  It supports exactly one operation, [claim_key],
   which returns [`Fresh] to exactly one caller per distinct key and
   [`Dup] to every other.

   {b Slot encoding.}  Slot [i] is words [2i] (lane 1) and [2i + 1]
   (lane 2).  A stored lane keeps the low 62 bits of its fingerprint lane
   and forces the sign bit on ([encode]), so a live lane-1 word is never
   0 and 0 marks an empty slot.  Dropping one bit per lane leaves a
   124-bit key ([bits]).  Linear probing starts at the low bits of
   lane 1.

   {b Claim-once.}  Every claim — the probe, the write of a fresh key and
   any growth it triggers — is one critical section under [lock].  A
   second claimer of a key therefore runs after the first one's write and
   finds its words: [`Dup].

   {b Growth.}  When a fresh key would take occupancy past 3/4 of the
   capacity, the claimer doubles the array and re-inserts every live
   slot, still inside the lock; claims after it probe the one new array.
   Each key is moved once per doubling, O(1) amortized per claim.

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
   whole canonical keys in a [Fingerprint.Ktbl] under the same lock: no
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
type t = { lock : Mutex.t; table : table }

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

(* The critical section of [claim].  Occupancy stays below capacity, so
   every probe sequence meets an empty slot. *)
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
        t.count <- t.count + 1;
        `Fresh
      end
    else if a = w1 && A.unsafe_get arr ((2 * i) + 1) = w2 then `Dup
    else go ((i + 1) land mask)
  in
  go (w1 land mask)

let create ?initial_capacity ?spill kind =
  {
    lock = Mutex.create ();
    table =
      (match kind with
      | `Two_lane -> create_words ?initial_capacity spill
      | `Exact -> Keys (Fingerprint.Ktbl.create 64));
  }

(* [insert] runs under [lock]; only growth raises (a spill file that
   cannot be created or mapped), leaving the table unchanged. *)
let[@inline] locked_insert t w st w1 w2 =
  Mutex.lock t.lock;
  match insert w st w1 w2 with
  | r ->
    Mutex.unlock t.lock;
    r
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let claim t st ~h1 ~h2 =
  match t.table with
  | Words w -> locked_insert t w st (encode h1) (encode h2)
  | Keys _ -> invalid_arg "Claim_table.claim: an exact-key table"

let claim_key t st key =
  match (t.table, key) with
  | Words w, Fingerprint.Fp fp ->
    locked_insert t w st (encode fp.Fingerprint.h1) (encode fp.Fingerprint.h2)
  | Words _, Fingerprint.Exact _ ->
    invalid_arg "Claim_table.claim_key: an exact key in a two-lane table"
  | Keys keys, key ->
    (* One hash of the key tree: [replace] grows the table only for a
       new key. *)
    Mutex.protect t.lock (fun () ->
        let n = Fingerprint.Ktbl.length keys in
        Fingerprint.Ktbl.replace keys key ();
        if Fingerprint.Ktbl.length keys > n then `Fresh else `Dup)

let locked t f =
  Mutex.lock t.lock;
  let r = f t.table in
  Mutex.unlock t.lock;
  r

let occupancy t =
  locked t (function Words w -> w.count | Keys k -> Fingerprint.Ktbl.length k)

let slots t = locked t (function Words w -> w.mask + 1 | Keys _ -> 0)

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
