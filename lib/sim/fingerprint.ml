(* Allocation-lean structural fingerprints of configurations.

   The explorer's hot path used to build a full [Value.t] key tree
   ([Config.key]), [Marshal] it to a fresh string and MD5-digest that
   string at every DFS node — three heap-churning passes per state.  This
   module folds a 126-bit hash (two independent 63-bit lanes of native
   ints, so nothing is ever boxed) directly over the store contents and
   the process array: one traversal, no intermediate tree, no marshal
   buffer, no 16-byte string key.  The only allocation per fingerprint is
   the final two-immediate-field record.

   Each lane is a SplitMix/xxhash-style multiply-xorshift accumulator;
   the lanes use distinct seeds and multipliers, so a collision requires
   two independent 63-bit matches (~2^-126 per pair of distinct states —
   negligible against the <= 10^7-state spaces the checker handles, and
   guarded by the [~paranoid] exact-key mode cross-validated in tests).

   All 64-bit-looking constants below are truncated to fit OCaml's 63-bit
   native int; the multiplications wrap modulo 2^63, which is exactly the
   mixing we want. *)

type t = { h1 : int; h2 : int }

let equal a b = a.h1 = b.h1 && a.h2 = b.h2
let compare a b =
  let c = Int.compare a.h1 b.h1 in
  if c <> 0 then c else Int.compare a.h2 b.h2

(* Non-negative 30-bit-ish hash for Hashtbl. *)
let hash t = (t.h1 lxor (t.h2 lsl 1)) land max_int
let to_hex t = Printf.sprintf "%016x%016x" (t.h1 land max_int) (t.h2 land max_int)
let pp ppf t = Format.pp_print_string ppf (to_hex t)

(* Lane multipliers / seeds: large odd constants < 2^62. *)
let m1 = 0x2545F4914F6CDD1D
let m2 = 0x27D4EB2F165667C5
let seed1 = 0x1CE1E5B9F352D9F3
let seed2 = 0x31E2B5A7C94F6E2D

(* [a], [b]: the stream being fed.  [s1], [s2]: a homomorphic sum that
   finished streams are folded into ([fold_in]), so a patch of several
   slots allocates its one result and nothing per slot. *)
type ctx = { mutable a : int; mutable b : int; mutable s1 : int; mutable s2 : int }

let create () = { a = seed1; b = seed2; s1 = 0; s2 = 0 }

let[@inline] feed ctx x =
  let a = (ctx.a + x) * m1 in
  ctx.a <- a lxor (a lsr 29);
  let b = (ctx.b lxor x) * m2 in
  ctx.b <- b lxor (b lsr 31)

let[@inline] fin h m =
  let h = (h lxor (h lsr 33)) * m in
  h lxor (h lsr 29)

let finish ctx = { h1 = fin ctx.a m2; h2 = fin ctx.b m1 }

let feed_string ctx s =
  feed ctx (String.length s);
  for i = 0 to String.length s - 1 do
    feed ctx (Char.code (String.unsafe_get s i))
  done

(* Structural fold over a [Value.t].  Constructor tags and open/close
   markers keep the encoding prefix-free: [Vec [a; b]] and
   [Pair (a, b)] feed different tag streams, so structurally distinct
   values feed distinct int sequences.  The per-constructor headers are
   exported so that [Symmetry] can feed an acted value without building
   it. *)
let feed_int ctx i =
  feed ctx 5;
  feed ctx i

let feed_sym ctx s =
  feed ctx 6;
  feed_string ctx s

let feed_pair ctx = feed ctx 7

let feed_vec ctx len =
  feed ctx 8;
  feed ctx len

let feed_tag ctx s =
  feed ctx 9;
  feed_string ctx s

let rec feed_value ctx (v : Value.t) =
  match v with
  | Value.Bot -> feed ctx 1
  | Value.Unit -> feed ctx 2
  | Value.Bool false -> feed ctx 3
  | Value.Bool true -> feed ctx 4
  | Value.Int i -> feed_int ctx i
  | Value.Sym s -> feed_sym ctx s
  | Value.Pair (a, b) ->
    feed_pair ctx;
    feed_value ctx a;
    feed_value ctx b
  | Value.Vec vs ->
    feed_vec ctx (List.length vs);
    feed_values ctx vs
  | Value.Tag (s, x) ->
    feed_tag ctx s;
    feed_value ctx x

(* Not [List.iter (feed_value ctx)]: that allocates a closure per
   vector. *)
and feed_values ctx = function
  | [] -> ()
  | v :: vs ->
    feed_value ctx v;
    feed_values ctx vs

let of_value v =
  let ctx = create () in
  feed_value ctx v;
  finish ctx

(* {1 Homomorphic (group-combinable) fingerprints}

   A sequential fold over a configuration would force an O(|store| +
   |procs|) re-traversal whenever one slot changes.  This hash instead
   hashes each (slot, content) pair to an independent, fully-finished
   mix and combines the mixes with a per-lane *group* operation — lane 1
   uses addition modulo 2^63 (OCaml native-int [+]/[-] wrap), lane 2
   uses XOR.  Both operations are abelian and invertible, so when a
   [Step] rewrites one
   process slot and one object slot the child fingerprint is the parent's
   with the old contributions subtracted and the new ones added: O(1) per
   transition, Zobrist-hashing style.

   Soundness: within one search the store's handle set and the process
   count are fixed, so two configurations with equal [Config.key] produce
   the identical multiset of (slot, content) mixes and hence equal
   combined fingerprints.  Distinct keys differ in at least one indexed
   slot; each slot mix is an independently seeded-and-finalized 126-bit
   hash, so the combined values collide with probability ~2^-126 per pair
   ([~paranoid] cross-validates patched fingerprints against
   [hom_of_config] re-folds). *)

let hom_add a b = { h1 = a.h1 + b.h1; h2 = a.h2 lxor b.h2 }
let hom_sub a b = { h1 = a.h1 - b.h1; h2 = a.h2 lxor b.h2 }

let reset ctx =
  ctx.a <- seed1;
  ctx.b <- seed2

(* Add ([sign] = 1) or subtract ([sign] = -1) the finished stream to the
   context's sum, leaving the stream fresh for the next mix: a patch
   mixes every slot it touches through one context. *)
let fold_in ctx sign =
  ctx.s1 <- ctx.s1 + (sign * fin ctx.a m2);
  ctx.s2 <- ctx.s2 lxor fin ctx.b m1;
  reset ctx

let patching fp = { a = seed1; b = seed2; s1 = fp.h1; s2 = fp.h2 }
let patched ctx = { h1 = ctx.s1; h2 = ctx.s2 }

(* Every mix of a value feeds it through [feed_v]: [feed_value] for a
   configuration's own slots, [Symmetry]'s fused action for the slots of
   its image under a renaming, which then mix exactly as the acted
   values would, with none of them built.  Each [feed_*] below feeds one
   slot's mix into a fresh context.

   Domain tags keep store-slot, proc-slot and base mixes disjoint even
   when a handle and a process index share an integer. *)
let feed_store_slot ctx feed_v h (st : Value.t) =
  feed ctx 0xA;
  feed ctx h;
  feed_v ctx st

let mix_store_slot_by feed_v h st =
  let ctx = create () in
  feed_store_slot ctx feed_v h st;
  finish ctx

let mix_store_slot h st = mix_store_slot_by feed_value h st

(* A process slot's contribution is itself a combination of finer
   mixes, so that the common transition — push one response onto the
   history — patches in O(1) rather than re-mixing the whole history:

   - one {e control} mix: status kind (a [Running] continuation is
     erased, exactly as [Config.proc_key] erases it — programs are
     deterministic functions of their response histories), the decided
     value if any, and the recovery count;
   - one mix {e per history entry}, indexed by the entry's distance from
     the {e oldest} end.  Histories are newest-first cons lists that
     grow by prepending, so reverse indexing keeps every existing
     entry's mix stable across a step: the step adds exactly one new
     (index = old length) mix.

   Together these distinguish everything [Config.proc_key] does — and
   nothing more ([steps] is bookkeeping, not state). *)
let feed_proc_control ctx feed_v i (p : Config.proc) =
  feed ctx 0xB;
  feed ctx i;
  (match p.Config.status with
  | Config.Running _ -> feed ctx 0x11
  | Config.Terminated v ->
    feed ctx 0x12;
    feed_v ctx v
  | Config.Hung -> feed ctx 0x13
  | Config.Crashed -> feed ctx 0x14
  | Config.Recovering _ -> feed ctx 0x15);
  feed ctx p.Config.recoveries

let feed_proc_hist ctx feed_v i r v =
  feed ctx 0xD;
  feed ctx i;
  feed ctx r;
  feed_v ctx v

let rec fold_hist_entries ctx feed_v i r = function
  | [] -> ()
  | v :: vs ->
    feed_proc_hist ctx feed_v i r v;
    fold_in ctx 1;
    fold_hist_entries ctx feed_v i (r - 1) vs

(* The whole slot at once, over [history] (the re-fold path and the
   algebraic tests); the patch path below never calls this on a step. *)
let mix_proc_slot_by feed_v i (p : Config.proc) history =
  let ctx = create () in
  feed_proc_control ctx feed_v i p;
  fold_in ctx 1;
  fold_hist_entries ctx feed_v i (List.length history - 1) history;
  patched ctx

let mix_proc_slot i (p : Config.proc) =
  mix_proc_slot_by feed_value i p p.Config.history

let hom_base ~n_procs =
  let ctx = create () in
  feed ctx 0xC;
  feed ctx n_procs;
  finish ctx

let erased_store =
  let ctx = create () in
  feed ctx 0xE;
  finish ctx

let hom_of_config (c : Config.t) =
  let acc = ref (hom_base ~n_procs:(Array.length c.Config.procs)) in
  Store.iter c.Config.store (fun h st ->
      acc := hom_add !acc (mix_store_slot h st));
  Array.iteri
    (fun i p -> acc := hom_add !acc (mix_proc_slot i p))
    c.Config.procs;
  !acc

(* Control projections are equal iff the control mixes are equal mixes —
   compare before hashing, so a step that only extends the history pays
   no control mix at all. *)
let same_control (a : Config.proc) (b : Config.proc) =
  a.Config.recoveries = b.Config.recoveries
  &&
  match (a.Config.status, b.Config.status) with
  | Config.Running _, Config.Running _ -> true
  | Config.Recovering _, Config.Recovering _ -> true
  | Config.Hung, Config.Hung -> true
  | Config.Crashed, Config.Crashed -> true
  | Config.Terminated x, Config.Terminated y -> x == y || x = y
  | _ -> false

(* Patch the history contributions from [oldh] (last index [ro]) to
   [newh] (last index [rn]): walk the longer list down to the shorter,
   then both in lockstep, stopping at the first physically shared tail.
   A step's successor shares the entire old history ([resp :: old]), so
   the loop mixes exactly one entry; crash (history cleared) and
   recovery (restart) pay their own length, which their budgets
   bound. *)
let fold_hist ctx feed_v i sign r v =
  feed_proc_hist ctx feed_v i r v;
  fold_in ctx sign

let rec hist_patch ctx feed_v i oldh ro newh rn =
  if oldh == newh then ()
  else if ro > rn then
    match oldh with
    | v :: tl ->
      fold_hist ctx feed_v i (-1) ro v;
      hist_patch ctx feed_v i tl (ro - 1) newh rn
    | [] -> assert false
  else if rn > ro then
    match newh with
    | v :: tl ->
      fold_hist ctx feed_v i 1 rn v;
      hist_patch ctx feed_v i oldh ro tl (rn - 1)
    | [] -> assert false
  else
    match (oldh, newh) with
    | [], [] -> ()
    | vo :: to_, vn :: tn ->
      if vo != vn then begin
        fold_hist ctx feed_v i (-1) ro vo;
        fold_hist ctx feed_v i 1 rn vn
      end;
      hist_patch ctx feed_v i to_ (ro - 1) tn (rn - 1)
    | _ -> assert false

let patch_proc_by ctx feed_v i oldp oldh newp newh =
  if not (same_control oldp newp) then begin
    feed_proc_control ctx feed_v i oldp;
    fold_in ctx (-1);
    feed_proc_control ctx feed_v i newp;
    fold_in ctx 1
  end;
  if oldh != newh then
    hist_patch ctx feed_v i oldh
      (List.length oldh - 1)
      newh
      (List.length newh - 1)

let hom_patch_proc fp i oldp newp =
  let ctx = patching fp in
  patch_proc_by ctx feed_value i oldp oldp.Config.history newp
    newp.Config.history;
  patched ctx

let rec patch_stores_by ctx feed_v old = function
  | [] -> ()
  | (h, v) :: rest ->
    feed_store_slot ctx feed_v (h : Store.handle :> int) (Store.state old h);
    fold_in ctx (-1);
    feed_store_slot ctx feed_v (h :> int) v;
    fold_in ctx 1;
    patch_stores_by ctx feed_v old rest

(* Re-open a finished fingerprint and mix one more word into both lanes.
   Used to key (configuration, sleep set) pairs: the state fingerprint is
   computed once and each canonical sleep entry is folded on top, so the
   extension costs O(|sleep|) with no re-traversal of the configuration.
   The lanes pass through the same multiply-xorshift round as [feed] +
   [finish], so [extend fp x] is as well-mixed as fingerprinting the
   extended stream directly; an empty extension is the identity. *)
let extend t x =
  let a = (t.h1 + x) * m1 in
  let b = (t.h2 lxor x) * m2 in
  { h1 = fin (a lxor (a lsr 29)) m2; h2 = fin (b lxor (b lsr 31)) m1 }

(* Visited-set keys: the fingerprint fast path, or the exact canonical
   [Value.t] key under [~paranoid] (collisions impossible, memory heavy —
   the cross-validation mode). *)
type key = Fp of t | Exact of Value.t

let key_equal a b =
  match (a, b) with
  | Fp x, Fp y -> equal x y
  | Exact u, Exact v -> Value.compare u v = 0
  | Fp _, Exact _ | Exact _, Fp _ -> false

(* An exact key hashes by its whole-tree fold: [Hashtbl.hash] reads only
   the first few nodes of a tree, which configurations of one search
   mostly share, so the exact table's buckets would degrade to long
   chains of structural comparisons. *)
let key_hash = function
  | Fp f -> hash f
  | Exact v -> hash (of_value v)

module Ktbl = Hashtbl.Make (struct
  type nonrec t = key

  let equal = key_equal
  let hash = key_hash
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
