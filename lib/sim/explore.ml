module Obs = Subc_obs

type limit_reason = No_limit | Max_states | Max_depth | Deadline

let pp_limit_reason ppf = function
  | No_limit -> Format.fprintf ppf "none"
  | Max_states -> Format.fprintf ppf "max-states"
  | Max_depth -> Format.fprintf ppf "max-depth"
  | Deadline -> Format.fprintf ppf "deadline"

(* A truncation reason makes the search inconclusive. *)
let reason_truncates = function
  | No_limit -> false
  | Max_states | Max_depth | Deadline -> true

type stats = {
  states : int;
  transitions : int;
  terminals : int;
  hung_terminals : int;
  crashed_terminals : int;
  recovered_terminals : int;
  max_depth : int;
  dedup_hits : int;
  source_skips : int;
  collision_bound : float;
  limited : bool;
  limit_reason : limit_reason;
  frontier_bytes : int;
  fp_patches : int;
  fp_refolds : int;
  diamonds : int;
  memo_hits : int;
  memo_evictions : int;
  probes : int;
  steals : int;
  cas_retries : int;
  visited_bytes : int;
}

(* Birthday bound on any-fingerprint-collision over the whole search:
   n(n-1)/2 pairs, each colliding with odds 2^-bits. *)
let collision_bound ~bits ~states =
  let n = float_of_int states in
  min 1.0 (n *. (n -. 1.0) /. 2.0 *. ldexp 1.0 (-bits))

(* The bound of a search's visited table: the two-lane width, or zero
   under the exact-key [~paranoid] mode. *)
let table_bound ~paranoid ~states =
  if paranoid then 0.0 else collision_bound ~bits:Claim_table.bits ~states

let pp_stats ppf s =
  Format.fprintf ppf
    "states=%d transitions=%d terminals=%d hung=%d crashed=%d%s depth=%d \
     dedup=%d%s%s%s"
    s.states s.transitions s.terminals s.hung_terminals s.crashed_terminals
    (if s.recovered_terminals > 0 then
       Printf.sprintf " recovered=%d" s.recovered_terminals
     else "")
    s.max_depth s.dedup_hits
    (if s.source_skips > 0 then Printf.sprintf " source-skips=%d" s.source_skips
     else "")
    (if s.collision_bound >= 1e-9 then
       Printf.sprintf " p-collision<=%.2g" s.collision_bound
     else "")
    (if s.limited then
       Format.asprintf " (LIMITED: %a)" pp_limit_reason s.limit_reason
     else "")

(* The one JSON encoding of [stats], shared by the verdict lines, the
   CLI's explore line and the engine's [explore] event: the search's
   outcome.  The work figures after [frontier_bytes] are not encoded;
   [Parallel.run] publishes them to the process totals. *)
let stats_fields s =
  Obs.Sink.
    [
      ("states", Int s.states);
      ("transitions", Int s.transitions);
      ("terminals", Int s.terminals);
      ("hung_terminals", Int s.hung_terminals);
      ("crashed_terminals", Int s.crashed_terminals);
      ("recovered_terminals", Int s.recovered_terminals);
      ("dedup_hits", Int s.dedup_hits);
      ("source_skips", Int s.source_skips);
      ("max_depth", Int s.max_depth);
      ("frontier_bytes", Int s.frontier_bytes);
      ("collision_bound", Float s.collision_bound);
      ("limited", Bool s.limited);
      ("limit_reason", Str (Format.asprintf "%a" pp_limit_reason s.limit_reason));
    ]

type reduction = { symmetry : Symmetry.t option; source_sets : bool }

let no_reduction = { symmetry = None; source_sets = false }
let with_symmetry sym = { symmetry = Some sym; source_sets = false }
let full_reduction sym = { symmetry = Some sym; source_sets = true }
let source_only = { symmetry = None; source_sets = true }

(* Soundness certificates: an unforgeable-by-convention token recording
   that a tool mechanically discharged the trusted obligations behind a
   reduction (equivariance of the symmetry spec, commutation of the
   independence judgment, source-set closure, object classification).
   The only minting site outside tests is [Subc_analysis.Analyzer.certify],
   which refuses unless every check proved. *)
module Certificate = struct
  type t = { tool : string; subject : string; obligations : string list }

  let attest ~tool ~subject ~obligations = { tool; subject; obligations }
  let tool c = c.tool
  let subject c = c.subject
  let obligations c = c.obligations

  let pp ppf c =
    Format.fprintf ppf "certified by %s for %s: %s" c.tool c.subject
      (String.concat ", " c.obligations)
end

let certified_reduction ~certificate:(_ : Certificate.t) ?(source_sets = true)
    symmetry =
  { symmetry; source_sets }

let pp_reduction ppf r =
  Format.fprintf ppf "symmetry=%s source-sets=%b"
    (match r.symmetry with
    | None -> "off"
    | Some s -> Printf.sprintf "|G|=%d" (Symmetry.group_order s))
    r.source_sets

(* A transition identity, for source-set independence: a process step is
   identified by (process, object handle) — all nondeterministic outcomes
   of one invocation form one transition bundle — and a crash by its
   victim.  Steps of distinct processes on distinct objects always
   commute; steps on the {e same} object commute when the object model
   says so (below).  Crashes of distinct victims commute (a crash touches
   only the victim's local state), and a crash commutes with any step of
   another process: the budget can only disable a sleeping crash, never
   re-enable one within a recovery-free segment, so budget exhaustion
   cannot unsoundly skip.

   A recovery rewrites the whole store through the persistence
   projections and restarts the victim's program, so no commutation is
   assumed from the object models: it is dependent on every crash and
   every recovery, and on a step of another process unless the diamond
   is checked on the configuration itself (below).  Recoveries come last
   among siblings and never enter a sleep set, so they never sleep and
   never put a sibling to sleep; taking one wakes every sleeping crash
   and every step it does not commute with. *)
type tr = Tstep of int * int | Tcrash of int | Trecover of int

(* Conditional (state-local) commutation of two operations on the same
   object: both orders must yield the same final object state and the
   same responses, for every resolution of nondeterminism, and neither
   order may turn a completing invocation into a hang.  This is the
   footprint-level independence — snapshot updates to distinct segments
   commute, reads commute with reads — derived semantically from
   [Obj_model.apply] rather than from declared footprints.  The pure
   computation lives here; the DFS memoizes it per exploration (below),
   assuming [apply] is pure and that equal [kind] strings name
   behaviourally identical models — both assumptions are discharged
   mechanically by [Subc_analysis], which certifies this judgment over
   each object's full reachable state space (and cross-checks it with an
   independent recomputation). *)
let op_independent (model : Obj_model.t) st0 a b =
  let apply st op = model.Obj_model.apply st op in
  let outcomes first second =
    (* (final object state, first's resp, second's resp), one triple per
       resolution of both invocations' nondeterminism; [Exit] when the
       second invocation hangs after the first. *)
    List.concat_map
      (fun (s1, r1) ->
        match apply s1 second with
        | [] -> raise Exit
        | ys -> List.map (fun (s2, r2) -> (s2, r1, r2)) ys)
      (apply st0 first)
  in
  if apply st0 a = [] || apply st0 b = [] then
    (* A hang is order-sensitive in general; stay conservative. *)
    false
  else
    match
      ( List.sort compare (outcomes a b),
        List.sort compare
          (List.map (fun (s, rb, ra) -> (s, ra, rb)) (outcomes b a)) )
    with
    | ab, ba -> ab = ba
    | exception Exit -> false

(* The memo table for [op_independent] is per-exploration state (per
   search domain): no process-global hashtable, no
   unbounded growth across searches, no cross-domain data race.  It is
   also bounded: past the cache's [cc_bound] entries new results are
   recomputed instead of cached — the cache is a pure memoization, so
   dropping inserts only costs time, never soundness.  Each dropped
   insert is counted (the run's [memo_evictions]), so the
   silent-recomputation regime is visible in the stats instead of
   indistinguishable from a healthy cache.  [?bound] is an argument so
   tests can exercise the overflow path cheaply. *)
type commute_cache = {
  cc_tbl : (string * Value.t * Op.t * Op.t, bool) Hashtbl.t;
  cc_bound : int;
  (* Plain fields, added to the domain's counters when it finishes
     ([add_commute]). *)
  mutable cc_diamonds : int;
  mutable cc_memo_hits : int;
  mutable cc_memo_evictions : int;
}

let commute_cache ?(bound = 1 lsl 16) () : commute_cache =
  {
    cc_tbl = Hashtbl.create 16;
    cc_bound = max 0 bound;
    cc_diamonds = 0;
    cc_memo_hits = 0;
    cc_memo_evictions = 0;
  }

let ops_commute (cache : commute_cache) store h a b =
  let model = Store.model store h in
  let st0 = Store.state store h in
  let key =
    if Op.compare a b <= 0 then (model.Obj_model.kind, st0, a, b)
    else (model.Obj_model.kind, st0, b, a)
  in
  match Hashtbl.find_opt cache.cc_tbl key with
  | Some r ->
    cache.cc_memo_hits <- cache.cc_memo_hits + 1;
    r
  | None ->
    let r = op_independent model st0 a b in
    cache.cc_diamonds <- cache.cc_diamonds + 1;
    if Hashtbl.length cache.cc_tbl < cache.cc_bound then
      Hashtbl.replace cache.cc_tbl key r
    else cache.cc_memo_evictions <- cache.cc_memo_evictions + 1;
    r

let pending config i =
  match config.Config.procs.(i).Config.status with
  | Config.Running (Program.Invoke (h, op, _))
  | Config.Recovering (Program.Invoke (h, op, _)) ->
    (h, op)
  | _ -> assert false

(* Whether recovering crashed process [p] and stepping running process
   [q] commute at [config]: both orders reach the same configurations
   (keys compared, so responses and recovery counts included) for every
   resolution of the step's nondeterminism, and the step does not hang.
   Neither order disables the other: a step leaves [p] crashed and the
   recovery budget untouched, and a recovery leaves [q] running with the
   same pending invocation.  Without this check a step taken before a
   recovery and the same step taken after it are two traces that reach
   one state under two sleep sets, and the (state, sleep) keying expands
   that state once per sleep set. *)
let recover_commutes config p q =
  let step c = List.map (fun (c', _, _) -> c') (Step.step_slots c q) in
  let keys cs = List.sort Value.compare (List.map Config.key cs) in
  let step_first = step config in
  List.for_all
    (fun c ->
      match c.Config.procs.(q).Config.status with
      | Config.Hung -> false
      | _ -> true)
    step_first
  && keys (List.map (fun c -> Config.recover c p) step_first)
     = keys (step (Config.recover config p))

(* Dependence of two transitions, conditional on the configuration where
   both are enabled (Katz–Peled conditional independence: state-local
   diamonds compose along any run that keeps the sleeping transition
   asleep). *)
let dependent_at cache config a b =
  match (a, b) with
  | Trecover p, Tstep (q, _) | Tstep (q, _), Trecover p ->
    not (recover_commutes config p q)
  | Trecover _, _ | _, Trecover _ -> true
  | Tstep (p, hp), Tstep (q, hq) ->
    p = q
    || (hp = hq
       &&
       let h, op_p = pending config p and _, op_q = pending config q in
       not (ops_commute cache config.Config.store h op_p op_q))
  | Tstep (p, _), Tcrash q | Tcrash q, Tstep (p, _) -> p = q
  | Tcrash p, Tcrash q -> p = q

let map_tr (pi : Symmetry.perm) = function
  | Tstep (p, h) -> Tstep (pi.(p), h)
  | Tcrash p -> Tcrash pi.(p)
  | Trecover p -> Trecover pi.(p)

(* Injective int packing of a transition identity, for folding a sleep
   set into a fingerprint ([Fingerprint.extend]).  Processes and handles
   are tiny (bounded by the instance size), so the shifted fields never
   overlap in practice; even if they did, the packing only has to be
   deterministic and near-injective — the fingerprint lanes do the
   mixing. *)
let pack_tr = function
  | Tstep (p, h) -> 0x1 lor (p lsl 2) lor (h lsl 24)
  | Tcrash p -> 0x2 lor (p lsl 2)
  | Trecover p -> 0x3 lor (p lsl 2)

(* The sleep set restricted to transitions enabled at [config] — the
   {e relevant} sleep.  Restriction before keying and inheritance is what
   keys terminals by state alone (no step or crash is enabled there, and
   recoveries never sleep, so the relevant sleep of a terminal is empty)
   and merges arrivals whose sleeps differ only in disabled entries.
   Dropping a disabled entry is sound: a sleeping [Tstep] stays enabled
   as long as it sleeps (anything that changes the process's status or
   pending invocation is dependent with it, and dependence wakes it), so
   only [Tcrash] entries are ever dropped — when the crash budget is
   exhausted, which is monotone within a recovery-free segment, and any
   recovery wakes every sleeping crash. *)
let restrict_sleep ~max_crashes config sleep =
  match sleep with
  | [] -> []
  | _ ->
    let runnable = Config.running config in
    let budget_left = Config.n_crashed config < max_crashes in
    List.filter
      (fun e ->
        match e with
        | Tstep (p, h) ->
          List.mem p runnable && (fst (pending config p) :> int) = h
        | Tcrash p -> budget_left && List.mem p runnable
        | Trecover _ -> false)
      sleep

(* Canonical packed encoding of a (restricted) sleep set: transport to
   the representative's frame, pack, sort.  The sorted int list is a
   deterministic function of the canonical (state, sleep) pair whatever
   concrete representative arrived. *)
let packed_sleep pi sleep =
  match sleep with
  | [] -> []
  | _ ->
    List.sort compare
      (List.map
         (fun e ->
           pack_tr (match pi with None -> e | Some pi -> map_tr pi e))
         sleep)

(* The packed sleep attached to a canonical state key must be an orbit
   invariant of the abstract (state, sleep) pair, not of whichever
   concrete representative arrived.  When the canonical state has a
   nontrivial stabilizer, two orbit-mates canonicalize through minimizers
   that differ by a stabilizer element, and transporting the sleep
   through just the tie-broken winner would encode the same abstract pair
   two ways — the visited/claim table would then split one node in two,
   and the state counts (never the verdicts: both keys still guard sound
   expansions) would depend on which representative was reached first,
   breaking the seq-vs-par bit-for-bit contract.  Taking the
   lexicographic minimum of the packed list over {e every} permutation
   achieving the canonical state key makes the encoding
   representative-independent.  Stabilizers are trivial for almost all
   states, so the fold usually sees one candidate. *)
let canonical_packed_sleep minimizers sleep =
  match minimizers with
  | [] -> packed_sleep None sleep
  | [ pi ] -> packed_sleep (Some pi) sleep
  | pi0 :: rest ->
    List.fold_left
      (fun best pi ->
        let packed = packed_sleep (Some pi) sleep in
        if compare packed best < 0 then packed else best)
      (packed_sleep (Some pi0) sleep)
      rest

exception Stop

(* The counters a search keeps, one record per domain, summed after the
   join ([max_depth] takes the maximum).  Every schedule-independent
   figure of {!stats} is one of these, so the determinism contract (equal
   counts at any [jobs]) rests on this one definition and on the helpers
   below, which every domain calls at the same points of an expansion.
   The fields from [diamonds] on are the domain's work figures: its
   commute cache's and claim probes, added when the domain finishes, and
   its steals. *)
type counters = {
  mutable states : int;
  mutable transitions : int;
  mutable terminals : int;
  mutable hung_terminals : int;
  mutable crashed_terminals : int;
  mutable recovered_terminals : int;
  mutable max_depth : int;
  mutable dedup_hits : int;
  mutable source_skips : int;
  mutable fp_patches : int;
  mutable fp_refolds : int;
  mutable fp_mismatches : int;
  mutable diamonds : int;
  mutable memo_hits : int;
  mutable memo_evictions : int;
  mutable probes : int;
  mutable steals : int;
  mutable cas_retries : int;
}

let fresh_counters () =
  {
    states = 0;
    transitions = 0;
    terminals = 0;
    hung_terminals = 0;
    crashed_terminals = 0;
    recovered_terminals = 0;
    max_depth = 0;
    dedup_hits = 0;
    source_skips = 0;
    fp_patches = 0;
    fp_refolds = 0;
    fp_mismatches = 0;
    diamonds = 0;
    memo_hits = 0;
    memo_evictions = 0;
    probes = 0;
    steals = 0;
    cas_retries = 0;
  }

let add_counters t c =
  t.states <- t.states + c.states;
  t.transitions <- t.transitions + c.transitions;
  t.terminals <- t.terminals + c.terminals;
  t.hung_terminals <- t.hung_terminals + c.hung_terminals;
  t.crashed_terminals <- t.crashed_terminals + c.crashed_terminals;
  t.recovered_terminals <- t.recovered_terminals + c.recovered_terminals;
  t.max_depth <- max t.max_depth c.max_depth;
  t.dedup_hits <- t.dedup_hits + c.dedup_hits;
  t.source_skips <- t.source_skips + c.source_skips;
  t.fp_patches <- t.fp_patches + c.fp_patches;
  t.fp_refolds <- t.fp_refolds + c.fp_refolds;
  t.fp_mismatches <- t.fp_mismatches + c.fp_mismatches;
  t.diamonds <- t.diamonds + c.diamonds;
  t.memo_hits <- t.memo_hits + c.memo_hits;
  t.memo_evictions <- t.memo_evictions + c.memo_evictions;
  t.probes <- t.probes + c.probes;
  t.steals <- t.steals + c.steals;
  t.cas_retries <- t.cas_retries + c.cas_retries

let add_commute c (cache : commute_cache) =
  c.diamonds <- c.diamonds + cache.cc_diamonds;
  c.memo_hits <- c.memo_hits + cache.cc_memo_hits;
  c.memo_evictions <- c.memo_evictions + cache.cc_memo_evictions

(* Terminal for the processes is not necessarily terminal for the search:
   with recovery budget left, the adversary may still revive a crashed
   process.  The configuration is reported as a terminal either way — the
   adversary may equally choose never to recover — and then expanded
   through its recover successors.  Terminals key by state alone (empty
   relevant sleep), so this fires once per terminal configuration. *)
let count_terminal c config =
  Config.running config = []
  && begin
       c.terminals <- c.terminals + 1;
       if Config.any_hung config then c.hung_terminals <- c.hung_terminals + 1;
       if Config.any_crashed config then
         c.crashed_terminals <- c.crashed_terminals + 1;
       if Config.any_recovered config then
         c.recovered_terminals <- c.recovered_terminals + 1;
       true
     end

(* Under [~paranoid] the carried incremental fingerprint is re-validated
   against a full re-fold at every claimed node: the configuration's
   homomorphic fingerprint with symmetry off, the key of its image under
   the winner [win] with symmetry on. *)
let cross_check c ~paranoid (reduction : reduction) fp win config =
  if paranoid then begin
    c.fp_refolds <- c.fp_refolds + 1;
    let refold =
      match reduction.symmetry with
      | None -> Fingerprint.hom_of_config config
      | Some sym -> Symmetry.image_fingerprint sym win config
    in
    if not (Fingerprint.equal fp refold) then
      c.fp_mismatches <- c.fp_mismatches + 1
  end

(* A paranoid run that saw any patch/re-fold disagreement is a soundness
   bug (or injected fault) — fail loudly rather than return counts built
   on a corrupted carry. *)
let check_fp_mismatches ~engine c =
  if c.fp_mismatches > 0 then
    invalid_arg
      (Printf.sprintf
         "%s: %d incremental fingerprint patch(es) disagree with the paranoid \
          re-fold"
         engine c.fp_mismatches)

let stats_of_counters c ~collision_bound ~limit_reason ~frontier_bytes
    ~visited_bytes =
  {
    states = c.states;
    transitions = c.transitions;
    terminals = c.terminals;
    hung_terminals = c.hung_terminals;
    crashed_terminals = c.crashed_terminals;
    recovered_terminals = c.recovered_terminals;
    max_depth = c.max_depth;
    dedup_hits = c.dedup_hits;
    source_skips = c.source_skips;
    collision_bound;
    limited = reason_truncates limit_reason;
    limit_reason;
    frontier_bytes;
    fp_patches = c.fp_patches;
    fp_refolds = c.fp_refolds;
    diamonds = c.diamonds;
    memo_hits = c.memo_hits;
    memo_evictions = c.memo_evictions;
    probes = c.probes;
    steals = c.steals;
    cas_retries = c.cas_retries;
    visited_bytes;
  }

(* A state key extended with the canonical relevant sleep.  An empty
   relevant sleep leaves the state key untouched, so source-set-off
   searches and terminal states key by state alone. *)
let extend_with_sleep key packed =
  match packed with
  | [] -> key
  | _ -> (
    match key with
    | Fingerprint.Fp fp ->
      Fingerprint.Fp (List.fold_left Fingerprint.extend fp packed)
    | Fingerprint.Exact v ->
      (* [Tag "sleep"] cannot collide with a bare configuration key —
         config keys are untagged pair/vector trees at the top. *)
      Fingerprint.Exact
        (Value.Tag
           ( "sleep",
             Value.Pair (v, Value.Vec (List.map (fun x -> Value.Int x) packed))
           )))

(* The sleep a node is keyed and expanded with: restricted under source
   sets, none without. *)
let relevant_sleep (reduction : reduction) ~max_crashes config sleep =
  if reduction.source_sets then restrict_sleep ~max_crashes config sleep
  else []

(* The carried image key of a node under its winner [g]: the one
   patched from the parent's when the parent's winner [win] is also
   this node's, else a re-fold (counted). *)
let image_key c sym fp win g config =
  if g = win then fp
  else begin
    c.fp_refolds <- c.fp_refolds + 1;
    Symmetry.image_fingerprint sym g config
  end

(* The claim key of a search node, the one way every search keys a node.
   Under source sets it is the {e pair} (canonical state, canonical
   relevant sleep): expansion is a pure function of that pair, so
   claiming each pair exactly once reproduces the stateless sleep-set
   search tree with identical subtrees shared, whichever domain claims
   it.  The state half is the carried fingerprint [fp]: on the
   symmetry-off lanes the configuration's, patched from the parent's, so
   a duplicate costs no re-fold and, when the relevant sleep is empty,
   not even the configuration ([config] is forced only when needed);
   under symmetry the key of the image under the orbit minimization's
   winner, patched under the parent's winner [win] and re-folded only
   when this node's winner differs.  Under [~paranoid] the state half is
   the exact canonical key from the key-tree reference path
   (collisions impossible), while [fp] is still carried for
   {!cross_check}.  Also returns the canonicalizing renaming and the
   restricted concrete sleep that {!source_successors} takes, then the
   node's carried fingerprint and winner index ([-1] with symmetry off),
   which its children are patched from. *)
let node_key ~paranoid c (reduction : reduction) ~max_crashes fp win config
    ~sleep =
  match reduction.symmetry with
  | None ->
    let sleep =
      match sleep with
      | [] -> []
      | _ -> relevant_sleep reduction ~max_crashes (Lazy.force config) sleep
    in
    let state =
      if paranoid then Fingerprint.Exact (Config.key (Lazy.force config))
      else Fingerprint.Fp fp
    in
    (extend_with_sleep state (packed_sleep None sleep), None, sleep, fp, -1)
  | Some sym ->
    let config = Lazy.force config in
    let sleep = relevant_sleep reduction ~max_crashes config sleep in
    let exact, g, mins =
      if paranoid then
        let key, mins = Symmetry.canonical_minimizers sym config in
        (Some key, Symmetry.index sym (List.hd mins), mins)
      else
        let g, mins = Symmetry.canonical_winner sym config in
        (None, g, mins)
    in
    let fp = image_key c sym fp win g config in
    let state =
      match exact with
      | Some key -> Fingerprint.Exact key
      | None -> Fingerprint.Fp fp
    in
    ( extend_with_sleep state (canonical_packed_sleep mins sleep),
      Some (List.hd mins),
      sleep,
      fp,
      g )

(* The carried fingerprint of a root: its homomorphic re-fold on the
   symmetry-off lanes (counted).  Under symmetry the root has no parent
   winner ([-1]), so [node_key] folds its winner's image and reads none:
   the shape's contribution stands in. *)
let root_fingerprint c (reduction : reduction) config =
  match reduction.symmetry with
  | Some _ -> Fingerprint.hom_base ~n_procs:(Config.n_procs config)
  | None ->
    c.fp_refolds <- c.fp_refolds + 1;
    Fingerprint.hom_of_config config

(* [node_key] of a node with winner [-1] carrying [fp]: what a search
   computes there, outside a search. *)
let key_from ?(paranoid = false) (reduction : reduction) ~max_crashes fp
    config ~sleep =
  node_key ~paranoid (fresh_counters ()) reduction ~max_crashes fp (-1)
    (Lazy.from_val config) ~sleep

let lanes = function
  | Fingerprint.Fp fp, pi, sleep, _, _ -> (fp, pi, sleep)
  | Fingerprint.Exact _, _, _, _, _ -> assert false

let source_fingerprint_from fp reduction ~max_crashes config ~sleep =
  lanes (key_from reduction ~max_crashes fp config ~sleep)

let source_fingerprint reduction ~max_crashes config ~sleep =
  source_fingerprint_from
    (root_fingerprint (fresh_counters ()) reduction config)
    reduction ~max_crashes config ~sleep

let state_key ?paranoid reduction config =
  let key, _, _, _, _ =
    key_from ?paranoid reduction ~max_crashes:0
      (root_fingerprint (fresh_counters ()) reduction config)
      config ~sleep:[]
  in
  key

(* One enabled transition bundle of the expansion, with the sleep set its
   children inherit (concrete coordinates of {e this} configuration).
   Each successor carries the slots its transition rewrote
   ({!Step.slots}), which is what lets a search patch fingerprints
   instead of re-folding. *)
type succ_group = {
  g_tr : tr;
  g_sleep : tr list;
  g_succs : (Config.t * Trace.event * Step.slots) list;
}

(* Every enabled transition bundle of [config], paired with its successor
   list: steps of runnable processes, crashes within budget, recoveries
   within budget. *)
let enabled_groups ~max_crashes ~max_recoveries config =
  let runnable = Config.running config in
  let steps =
    List.map
      (fun i ->
        ( Tstep (i, (fst (pending config i) :> int)),
          List.map
            (fun (c, e, sl) -> (c, Trace.Sched e, sl))
            (Step.step_slots config i) ))
      runnable
  in
  let crashes =
    if Config.n_crashed config < max_crashes then
      List.map
        (fun (c, v, sl) -> (Tcrash v, [ (c, Trace.Crash v, sl) ]))
        (Step.crash_successors_slots config)
    else []
  in
  let recoveries =
    if
      max_recoveries > 0
      && Config.any_crashed config
      && Config.n_recoveries config < max_recoveries
    then
      List.map
        (fun (c, v, sl) -> (Trecover v, [ (c, Trace.Recover v, sl) ]))
        (Step.recover_successors_slots config)
    else []
  in
  steps @ crashes @ recoveries

(* The O(1) fingerprint patch: rewrite the touched proc slot's
   contribution and each touched store slot's contribution.  Exact (not
   just probabilistic) agreement with [hom_of_config child] holds because
   a transition's successor differs from its parent in precisely the
   slots listed — everything else is physically shared — and the
   homomorphic combine is an abelian group per lane. *)
let patched_fingerprint parent fp (s : Step.slots) child =
  let i = s.Step.sl_proc in
  let oldp = parent.Config.procs.(i) and newp = child.Config.procs.(i) in
  let ctx = Fingerprint.patching fp in
  Fingerprint.patch_proc_by ctx Fingerprint.feed_value i oldp
    oldp.Config.history newp newp.Config.history;
  Fingerprint.patch_stores_by ctx Fingerprint.feed_value parent.Config.store
    s.Step.sl_store;
  Fingerprint.patched ctx

(* The child's carried fingerprint: the parent's, patched through the
   transition's slots — under symmetry, as the image under the parent's
   winner [win]. *)
let child_fingerprint c (reduction : reduction) fp win parent slots child =
  c.fp_patches <- c.fp_patches + 1;
  match reduction.symmetry with
  | None -> patched_fingerprint parent fp slots child
  | Some sym -> Symmetry.patch_image sym win fp parent slots child

(* The source-set expansion of a (config, sleep) node, run by every
   search domain.

   Siblings are processed in {e canonical} order (sorted by their image
   under the canonicalizing renaming), so the k-th sibling — and hence
   each child's inherited sleep — is the same function of the canonical
   (state, sleep) key whichever orbit representative is being expanded
   and whichever domain claimed it.  A sibling already in [sleep] is
   skipped (counted); an explored sibling joins the sleep of every later
   independent sibling's children (the classic sleep-set inheritance,
   which under DFS ordering is exactly the source-set discipline: the
   transitions actually explored at the node form a source set for it).
   Independence is conditional (state-local): an inherited entry is
   re-filtered against the taken transition at every expansion, and each
   covering argument uses only the commutation diamond at the state where
   the judgment was made — the judgment may freely flip at descendants.
   Soundness under work stealing needs only the certificate obligations —
   per-state commutation and [dependent_at] equivariance — because the
   expansion is deterministic per canonical key and the claim-once table
   makes execution order irrelevant. *)
let source_successors cache (reduction : reduction) ~pi ~max_crashes
    ~max_recoveries config ~sleep =
  let groups = enabled_groups ~max_crashes ~max_recoveries config in
  if not reduction.source_sets then
    (List.map (fun (tr, succs) -> { g_tr = tr; g_sleep = []; g_succs = succs })
       groups,
     0)
  else begin
    let groups =
      match pi with
      | None ->
        (* Concrete coordinates are canonical: [enabled_groups] already
           yields steps by process, then crashes by victim, then
           recoveries — sorted transition order. *)
        groups
      | Some pi ->
        List.sort
          (fun (a, _) (b, _) -> compare (map_tr pi a) (map_tr pi b))
          groups
    in
    let skips = ref 0 in
    let taken = ref [] in
    let out =
      List.filter_map
        (fun (tr, succs) ->
          if List.mem tr sleep then begin
            incr skips;
            None
          end
          else begin
            let child =
              List.filter
                (fun s -> not (dependent_at cache config s tr))
                (List.rev_append !taken sleep)
            in
            taken := tr :: !taken;
            Some { g_tr = tr; g_sleep = child; g_succs = succs }
          end)
        groups
    in
    (out, !skips)
  end
