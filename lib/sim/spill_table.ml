(* Out-of-core visited table: an open-addressed set of 62-bit folded
   fingerprint words stored in mmap'd files, so the visited set of a
   [--spill] search is bounded by disk, not by the OCaml heap.

   Each segment is one [Bigarray.Array1] of native ints mapped shared
   from a freshly created file under the spill directory.  The file is
   unlinked immediately after mapping: the mapping keeps the inode alive,
   the directory stays clean whatever happens to the process, and the
   kernel reclaims the blocks when the table is garbage collected (or the
   process exits).  Pages are file-backed and evictable, which is the
   whole point — the resident cost of the table is the page cache's
   decision, not a hard heap commitment, so [memory_bytes] reports only
   the heap-resident bookkeeping (the RSS floor) and [spill_bytes] the
   mapped bytes.

   The slot encoding is exactly the folded mode of {!Claim_table}: a live
   slot holds [Claim_table.encode (Claim_table.fold_key h1 h2)] (always
   negative), an empty slot holds 0 — a fresh mapping is all zeros
   because [Unix.map_file] extends the file with holes.  Collisions
   between distinct fingerprints therefore happen at the same ~2^-62 per
   pair as a folded claim table, and the caller surfaces the same
   birthday bound through [stats.collision_bound].

   Growth reuses the claim table's segment-chaining idea without the
   lock-free subtlety: when the head segment crosses 3/4 occupancy a
   doubled segment is mapped and prepended; older segments serve
   read-only probes forever and nothing is rehashed.  Unlike
   {!Claim_table} there is no CAS protocol: claims are serialized by
   [lock] — out-of-core mode trades claim-path parallelism for bounded
   memory. *)

type segment = {
  mask : int;
  arr : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable count : int;
  limit : int; (* 3/4 of capacity, as in Claim_table *)
}

type t = {
  lock : Mutex.t;
  mutable segments : segment list; (* head = newest = claim target *)
  dir : string;
}

let empty = 0

(* Names segment files; shared by every table in the process. *)
let next_file = Atomic.make 0

(* Map a fresh all-zero segment of [cap] slots from an unlinked file in
   [t.dir].  The name carries the process id and a process-wide counter,
   and [O_EXCL] refuses any file already there (a name that is taken —
   say, left by a dead process with a recycled pid — just draws the next
   counter value): an existing file is never truncated, and two tables
   never share an inode.  The fd is closed right away — the mapping
   survives it. *)
let map_segment t cap =
  let rec create_file () =
    let path =
      Filename.concat t.dir
        (Printf.sprintf "subc-%d-%d.spill" (Unix.getpid ())
           (Atomic.fetch_and_add next_file 1))
    in
    match Unix.openfile path [ O_RDWR; O_CREAT; O_EXCL ] 0o600 with
    | fd -> (path, fd)
    | exception Unix.Unix_error (EEXIST, _, _) -> create_file ()
  in
  let path, fd = create_file () in
  let arr =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Unix.close fd)
      (fun () ->
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| cap |]))
  in
  { mask = cap - 1; arr; count = 0; limit = cap - (cap / 4) }

let create ?initial_capacity ?expected_states ~dir () =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let initial_capacity =
    match (initial_capacity, expected_states) with
    | Some c, _ -> c
    | None, Some n -> max 64 (n + (n / 3))
    | None, None -> 1 lsl 16
  in
  let cap =
    let rec up c = if c >= initial_capacity then c else up (c * 2) in
    up 64
  in
  let t = { lock = Mutex.create (); segments = []; dir } in
  t.segments <- [ map_segment t cap ];
  t

(* Probe one segment for [w]; [`Found], or [`Empty i] (claimable slot in
   the head segment), or [`Full] when the probe wrapped. *)
let probe (seg : segment) st w =
  let cap = seg.mask + 1 in
  let rec go i remaining =
    if remaining = 0 then `Full
    else begin
      st.Claim_table.probes <- st.Claim_table.probes + 1;
      let a = Bigarray.Array1.unsafe_get seg.arr i in
      if a = empty then `Empty i
      else if a = w then `Found
      else go ((i + 1) land seg.mask) (remaining - 1)
    end
  in
  go (w land seg.mask) cap

let claim_word t st w =
  Mutex.lock t.lock;
  let r =
    let rec attempt () =
      match t.segments with
      | [] -> assert false
      | head :: older ->
        if
          List.exists
            (fun seg -> match probe seg st w with `Found -> true | _ -> false)
            older
        then `Dup
        else begin
          match probe head st w with
          | `Found -> `Dup
          | `Empty i when head.count < head.limit ->
            Bigarray.Array1.unsafe_set head.arr i w;
            head.count <- head.count + 1;
            `Fresh
          | `Empty _ | `Full ->
            t.segments <- map_segment t (2 * (head.mask + 1)) :: t.segments;
            attempt ()
        end
    in
    attempt ()
  in
  Mutex.unlock t.lock;
  r

let claim t st ~h1 ~h2 =
  claim_word t st (Claim_table.encode (Claim_table.fold_key h1 h2))

let occupancy t =
  Mutex.lock t.lock;
  let n = List.fold_left (fun acc s -> acc + s.count) 0 t.segments in
  Mutex.unlock t.lock;
  n

let segments t = List.length t.segments

(* Heap-resident bookkeeping only: segment records, list spine, bigarray
   custom blocks — {e not} the mapped pages, which are file-backed and
   evictable (they show up in [spill_bytes]).  ~16 words per segment
   plus the table record itself. *)
let memory_bytes t = 8 * (8 + (16 * List.length t.segments))

let spill_bytes t =
  8 * List.fold_left (fun acc s -> acc + s.mask + 1) 0 t.segments
