type perm = int array

let identity n = Array.init n (fun i -> i)

let rotations n =
  List.init n (fun c -> Array.init n (fun i -> (i + c) mod n))

(* All n! permutations of 0..n-1.  Only sensible for the tiny process
   counts the checker handles exhaustively (n <= 6 or so). *)
let all_perms n =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: ys as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insert_everywhere x ys)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: xs -> List.concat_map (insert_everywhere x) (perms xs)
  in
  perms (List.init n (fun i -> i)) |> List.map Array.of_list

(* One group element with its inverse: slot j of an acted length-n
   vector holds entry [inv.(j)] of the original. *)
type elem = { pi : perm; inv : perm; id : bool }

let elem pi =
  let inv = Array.make (Array.length pi) 0 and id = ref true in
  for i = 0 to Array.length pi - 1 do
    inv.(pi.(i)) <- i;
    if pi.(i) <> i then id := false
  done;
  { pi; inv; id = !id }

(* The data action is plain data, not a closure, so that comparing or
   fingerprinting a value under a renaming can walk the un-acted value
   (below) instead of allocating the acted copy. *)
type t = {
  n : int;
  group : [ `Trivial | `Rotations | `Full ];
  map_ids : bool;
  input_base : int option;
  erase_dead : bool;
  perms : perm list;
  elems : elem array;  (* [perms] in group order *)
  (* [feeds.(g) ctx v] feeds [v] acted by element [g] (see
     [feed_acted]): one closure per element, built with the spec, so
     that folding and patching a key allocate none.  The identity's is
     [Fingerprint.feed_value] itself. *)
  feeds : (Fingerprint.ctx -> Value.t -> unit) array;
  (* [canonical_winner_decided]'s answer in a one-element group, each
     element's one-element coset, and the shape's contribution to every
     key, built once. *)
  sole : int * perm list * bool;
  singles : perm list array;
  base : Fingerprint.t;
}

let group_order t = Array.length t.elems

let group_name t =
  match t.group with
  | `Trivial -> "trivial"
  | `Rotations -> "rotations"
  | `Full -> "full"

let n_procs t = t.n
let perms t = t.perms

(* The standard data action for the repo's harness conventions:
   - [Int i] with 0 <= i < n is a process index and is renamed (when
     [map_ids]);
   - [Int i] with base <= i < base + n is process i-base's proposal and is
     renamed consistently (when [input_base] is given);
   - a [Vec] of length exactly n is process-indexed (snapshot segments,
     WRN cells, used-flags, scan views): entry i moves to slot pi(i) and
     is itself acted on;
   - everything else is traversed structurally.

   This is a convention the simulator itself does not check: object states
   and responses must index processes only through length-n vectors and
   0..n-1 integers.  The static analyzer (Subc_analysis) certifies it
   mechanically per object model — equivariance of apply under every group
   element over the reachable state space — and the cross-validation suite
   (test_reduction) checks each algorithm family end-to-end against the
   unreduced search. *)
let rec deep_act ~n ~map_ids ~input_base (pi : perm) v =
  match v with
  | Value.Int i when map_ids && 0 <= i && i < n -> Value.Int pi.(i)
  | Value.Int i -> (
    match input_base with
    | Some b when b <= i && i < b + n -> Value.Int (b + pi.(i - b))
    | _ -> v)
  | Value.Vec vs when List.length vs = n ->
    let arr = Array.make n Value.Bot in
    List.iteri
      (fun i x -> arr.(pi.(i)) <- deep_act ~n ~map_ids ~input_base pi x)
      vs;
    Value.Vec (Array.to_list arr)
  | Value.Pair (a, b) ->
    Value.Pair
      (deep_act ~n ~map_ids ~input_base pi a,
       deep_act ~n ~map_ids ~input_base pi b)
  | Value.Vec vs -> Value.Vec (List.map (deep_act ~n ~map_ids ~input_base pi) vs)
  | Value.Tag (s, x) -> Value.Tag (s, deep_act ~n ~map_ids ~input_base pi x)
  | _ -> v

let act t pi v =
  deep_act ~n:t.n ~map_ids:t.map_ids ~input_base:t.input_base pi v

(* The key's rendering of a process status (a decided value is tagged
   ["done"] instead). *)
let status_sym = function
  | Config.Running _ -> "run"
  | Config.Hung -> "hung"
  | Config.Crashed -> "crash"
  | Config.Recovering _ -> "recover"
  | Config.Terminated _ -> "done"

(* With [erase_dead], a terminal configuration with no crashed process
   keys without its store (see [key_under]). *)
let[@inline] erases_store t (c : Config.t) =
  t.erase_dead && Config.is_terminal c && not (Config.any_crashed c)

let[@inline] live_history t (p : Config.proc) =
  match p.Config.status with
  | (Config.Terminated _ | Config.Hung) when t.erase_dead -> []
  | _ -> p.Config.history

(* Key of [c] under one renaming [pi].  Mirrors [Config.key] with three
   differences: (1) object states and data values go through the symmetry
   action; (2) process entry i is placed at slot pi(i); (3) with
   [erase_dead], the response histories of finished (terminated or hung)
   processes are dropped — they can no longer influence the execution, and
   no checker reads stored histories, so configurations differing only in
   how a finished process got there are merged.  Crashed histories are
   already cleared by [Config.crash].  Additionally, in a terminal
   configuration with no crashed process, no object will ever be invoked
   again, so the whole store is dead and is erased from the key.  A
   terminal {e with} crashed processes must keep its store: under a
   positive recovery budget the adversary can still revive a victim,
   whose future reads the store — erasing it would merge configurations
   with genuinely different futures (observed as schedule-dependent state
   counts under the source-set reduction before this guard existed).

   This tree is the reference: [~paranoid] searches key by it, and the
   allocation-free path below must agree with it exactly.  The identity
   acts as the identity, so its tree shares the configuration's values,
   as [Config.key] does: a paranoid search without symmetry keys so. *)
let key_under t (pi : perm) (c : Config.t) =
  let id = pi = identity t.n in
  let act = if id then Fun.id else act t pi in
  let store_part =
    if erases_store t c then Value.Sym "terminal"
    else
      Value.Vec
        (List.map
           (fun (h, st) -> Value.Pair (Value.Int h, act st))
           (Store.contents c.Config.store))
  in
  let act_proc (p : Config.proc) =
    let status =
      match p.Config.status with
      | Config.Terminated v -> Value.Tag (status_sym p.Config.status, act v)
      | s -> Value.Sym (status_sym s)
    in
    (* The history is a sequence of responses: act on each element,
       never permute the list itself. *)
    let history =
      if id then live_history t p else List.map act (live_history t p)
    in
    (* The recovery counter is never erased, even for finished processes:
       the remaining recovery budget is a function of the total consumed,
       so merging configurations that differ in it would be unsound. *)
    Value.Pair
      (status, Value.Pair (Value.Int p.Config.recoveries, Value.Vec history))
  in
  let procs = Array.make t.n Value.Unit in
  Array.iteri (fun i p -> procs.(pi.(i)) <- act_proc p) c.Config.procs;
  Value.Pair (store_part, Value.Vec (Array.to_list procs))

(* The canonical representative's key is the minimum key over the group;
   it comes with every permutation achieving it, in group order.  The
   head (ties keep the earliest permutation) is the winner, a
   deterministic function of the configuration alone, which transports
   sleep sets into canonical coordinates.  The source-set engine needs
   the full stabilizer coset to encode sleep sets
   representative-independently: when the canonical state is fixed by
   more than one group element, orbit-mates canonicalize through
   minimizers that differ by a stabilizer element, and a sleep set
   transported through just the tie-broken winner would encode one
   abstract (state, sleep) pair several ways. *)
let canonical_minimizers t (c : Config.t) =
  match t.perms with
  | [] -> assert false
  | pi0 :: rest ->
    let best_key = ref (key_under t pi0 c) and mins = ref [ pi0 ] in
    List.iter
      (fun pi ->
        let k = key_under t pi c in
        let d = compare k !best_key in
        if d < 0 then begin
          best_key := k;
          mins := [ pi ]
        end
        else if d = 0 then mins := pi :: !mins)
      rest;
    (!best_key, List.rev !mins)

let canonical_key t c =
  let key, mins = canonical_minimizers t c in
  (key, List.hd mins)

(* {2 Orbit minimization without key trees}

   [cmp_value t p x q y] has the sign of
   [compare (deep_act p.pi x) (deep_act q.pi y)], and [feed_acted]
   feeds [Fingerprint.of_value (deep_act p.pi v)]'s stream, both by
   walking the un-acted values: the action maps integers on the fly
   and reads slot j of a length-n vector at entry [inv.(j)].  Neither
   allocates.  Exactness rests on the action preserving constructors:
   polymorphic [compare] orders distinct constructors by constructor
   alone, and the leaves it does not rewrite (Bot, Unit, Bool, Sym) are
   fixed by every renaming, so on those the un-acted [compare] is the
   acted one. *)

let[@inline] act_int t e i =
  if e.id then i
  else if t.map_ids && 0 <= i && i < t.n then e.pi.(i)
  else
    match t.input_base with
    | Some b when b <= i && i < b + t.n -> b + e.pi.(i - b)
    | _ -> i

let rec cmp_value t p (x : Value.t) q (y : Value.t) =
  match (x, y) with
  | Value.Int i, Value.Int j -> Int.compare (act_int t p i) (act_int t q j)
  | Value.Pair (a, b), Value.Pair (a', b') ->
    let r = cmp_value t p a q a' in
    if r <> 0 then r else cmp_value t p b q b'
  | Value.Vec xs, Value.Vec ys ->
    let lx = List.length xs and ly = List.length ys in
    let px = lx = t.n && not p.id and py = ly = t.n && not q.id in
    if not (px || py) then cmp_list t p xs q ys
    else
      (* Lists compare lexicographically, a proper prefix first. *)
      let r = cmp_slots t p xs px q ys py 0 (min lx ly) in
      if r <> 0 then r else Int.compare lx ly
  | Value.Tag (s, a), Value.Tag (s', b) ->
    let r = String.compare s s' in
    if r <> 0 then r else cmp_value t p a q b
  | _ -> compare x y

and cmp_list t p xs q ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let r = cmp_value t p x q y in
    if r <> 0 then r else cmp_list t p xs q ys

(* Slots [j..m-1] of two vectors, a permuted one read through its
   element's inverse. *)
and cmp_slots t p xs px q ys py j m =
  if j = m then 0
  else
    let x = List.nth xs (if px then p.inv.(j) else j) in
    let y = List.nth ys (if py then q.inv.(j) else j) in
    let r = cmp_value t p x q y in
    if r <> 0 then r else cmp_slots t p xs px q ys py (j + 1) m

let rec feed_acted t e ctx (v : Value.t) =
  if e.id then Fingerprint.feed_value ctx v
  else
    match v with
    | Value.Int i -> Fingerprint.feed_int ctx (act_int t e i)
    | Value.Pair (a, b) ->
      Fingerprint.feed_pair ctx;
      feed_acted t e ctx a;
      feed_acted t e ctx b
    | Value.Vec vs ->
      let len = List.length vs in
      Fingerprint.feed_vec ctx len;
      if len = t.n then feed_slots t e ctx vs 0 len else feed_list t e ctx vs
    | Value.Tag (s, x) ->
      Fingerprint.feed_tag ctx s;
      feed_acted t e ctx x
    | _ -> Fingerprint.feed_value ctx v

and feed_list t e ctx = function
  | [] -> ()
  | v :: vs ->
    feed_acted t e ctx v;
    feed_list t e ctx vs

and feed_slots t e ctx vs j len =
  if j < len then begin
    feed_acted t e ctx (List.nth vs e.inv.(j));
    feed_slots t e ctx vs (j + 1) len
  end

let standard ~n ?input_base ?(map_ids = true) ?(erase_dead = true) grp =
  let perms =
    match grp with
    | `Trivial -> [ identity n ]
    | `Rotations -> rotations n
    | `Full -> all_perms n
  in
  let elems =
    match grp with
    | `Rotations ->
      (* The inverse of rotation c is rotation n - c: share the arrays
         instead of building inverses (specs are built per check). *)
      let rots = Array.of_list perms in
      Array.mapi
        (fun c pi -> { pi; inv = rots.((n - c) mod n); id = c = 0 })
        rots
    | `Trivial | `Full -> Array.of_list (List.map elem perms)
  in
  let t =
    { n; group = grp; map_ids; input_base; erase_dead; perms; elems;
      feeds = [||];
      sole = (0, perms, false);
      singles = Array.map (fun e -> [ e.pi ]) elems;
      base = Fingerprint.hom_base ~n_procs:n }
  in
  let feed e =
    if e.id then Fingerprint.feed_value else fun ctx v -> feed_acted t e ctx v
  in
  { t with feeds = Array.map feed elems }

(* A census runs tens of thousands of searches without symmetry: the
   trivial specs of the counts an exhaustive search reaches are built
   once, at load (more counts measured a larger peak RSS). *)
let trivials =
  Array.init 8 (fun n -> standard ~n ~map_ids:false ~erase_dead:false `Trivial)

let trivial ~n =
  if n < Array.length trivials then trivials.(n)
  else standard ~n ~map_ids:false ~erase_dead:false `Trivial

let erasure_only ~n = standard ~n ~map_ids:false ~erase_dead:true `Trivial

(* [key_under]'s order: the store slot by slot in handle order (handles
   agree on both sides, so only the acted states are compared), then
   process slot j, which holds process [inv.(j)]: its status, recovery
   count and live history. *)
let cmp_status t p (a : Config.status) q (b : Config.status) =
  match (a, b) with
  | Config.Terminated v, Config.Terminated w -> cmp_value t p v q w
  (* [Tag] sorts after every [Sym]. *)
  | Config.Terminated _, _ -> 1
  | _, Config.Terminated _ -> -1
  | _ -> String.compare (status_sym a) (status_sym b)

let cmp_proc t p (a : Config.proc) q (b : Config.proc) =
  let r = cmp_status t p a.Config.status q b.Config.status in
  if r <> 0 then r
  else
    let r = Int.compare a.Config.recoveries b.Config.recoveries in
    if r <> 0 then r else cmp_list t p (live_history t a) q (live_history t b)

let rec cmp_store t slots p q i =
  if i = Array.length slots then 0
  else
    let r = cmp_value t p slots.(i) q slots.(i) in
    if r <> 0 then r else cmp_store t slots p q (i + 1)

let rec cmp_procs t procs p q j =
  if j = t.n then 0
  else
    let r = cmp_proc t p procs.(p.inv.(j)) q procs.(q.inv.(j)) in
    if r <> 0 then r else cmp_procs t procs p q (j + 1)

(* Exactly [canonical_minimizers]' fold, with the lazy comparison in
   place of [compare] on two key trees: the winner (returned as its
   index in group order) is the first minimizer in group order and the
   coset lists every minimizer in group order.  Also reports whether
   the store decided the result: every comparison against the running
   best settled in [cmp_store], none reaching [cmp_procs].  Each
   element that did not become the best then lost to the best of its
   time on the store alone, and each new best beat the previous one
   there too, so by transitivity the winner's acted store is strictly
   below every other element's, and the coset is the winner alone.  An
   erased store ([slots = [||]]) never decides. *)
let minimize t slots (procs : Config.proc array) =
  let best = ref 0 and mins = ref t.singles.(0) and decided = ref true in
  for g = 1 to Array.length t.elems - 1 do
    let e = t.elems.(g) in
    let b = t.elems.(!best) in
    let d =
      let r = cmp_store t slots e b 0 in
      if r <> 0 then r
      else begin
        decided := false;
        cmp_procs t procs e b 0
      end
    in
    if d < 0 then begin
      best := g;
      mins := t.singles.(g)
    end
    else if d = 0 then mins := e.pi :: !mins
  done;
  (!best, (match !mins with [ _ ] as l -> l | l -> List.rev l), !decided)

(* A one-element group's answer is already O(1): it reports [false], so
   no child inherits it. *)
let canonical_winner_decided t (c : Config.t) =
  if Array.length t.elems = 1 then t.sole
  else
    let slots = if erases_store t c then [||] else Store.states c.Config.store in
    minimize t slots c.Config.procs

let canonical_winner t c =
  let g, mins, _ = canonical_winner_decided t c in
  (g, mins)

let singleton t g = t.singles.(g)

let index t pi =
  let rec go g = if t.elems.(g).pi = pi then g else go (g + 1) in
  go 0

(* {2 Keys as homomorphic fingerprints of images}

   The key of [c] under element [g] is the homomorphic fingerprint
   ([Fingerprint.hom_of_config]'s sum of per-slot mixes) of [c]'s image
   [key_under t g.pi c], read off [c]'s own slots: store slot [h] mixes
   its acted state, process [i]'s control and live history mix at slot
   [g.pi.(i)], each value fed through [feeds.(g)], and an erased store
   mixes as one constant.  Each slot's mix is a function of that slot of
   the image, so equal images have equal keys; distinct images differ in
   some slot, and collide with the odds of distinct configurations.
   Because the sum is invertible, a transition that rewrites one process
   slot and a few store slots turns its parent's key under [g] into its
   own under [g] at the cost of those slots ([patch_image]); only a child
   whose winner is not its parent's pays the whole fold. *)

let image_fingerprint t g (c : Config.t) =
  let e = t.elems.(g) and feed = t.feeds.(g) in
  let acc = ref t.base in
  if erases_store t c then
    acc := Fingerprint.hom_add !acc Fingerprint.erased_store
  else
    Store.iter c.Config.store (fun h st ->
        acc :=
          Fingerprint.hom_add !acc (Fingerprint.mix_store_slot_by feed h st));
  for i = 0 to Array.length c.Config.procs - 1 do
    let p = c.Config.procs.(i) in
    acc :=
      Fingerprint.hom_add !acc
        (Fingerprint.mix_proc_slot_by feed e.pi.(i) p (live_history t p))
  done;
  !acc

let patch_image t g fp (parent : Config.t) (s : Step.slots) (child : Config.t) =
  let feed = t.feeds.(g) and i = s.Step.sl_proc in
  let oldp = parent.Config.procs.(i) and newp = child.Config.procs.(i) in
  let ctx = Fingerprint.patching fp in
  Fingerprint.patch_proc_by ctx feed t.elems.(g).pi.(i) oldp
    (live_history t oldp) newp (live_history t newp);
  if erases_store t child then begin
    (* A configuration with a successor can step or recover, so its own
       store was not erased: it is in [fp], slot by slot. *)
    let acc =
      ref (Fingerprint.hom_add (Fingerprint.patched ctx) Fingerprint.erased_store)
    in
    Store.iter parent.Config.store (fun h st ->
        acc :=
          Fingerprint.hom_sub !acc (Fingerprint.mix_store_slot_by feed h st));
    !acc
  end
  else begin
    Fingerprint.patch_stores_by ctx feed parent.Config.store s.Step.sl_store;
    Fingerprint.patched ctx
  end

let compare_acted t p x q y = cmp_value t (elem p) x (elem q) y

let fingerprint_acted t pi v =
  let ctx = Fingerprint.create () in
  feed_acted t (elem pi) ctx v;
  Fingerprint.finish ctx
