(* Multicore exploration: a frontier-splitting parallel driver for the
   sequential explorer's transition relation.

   The driver seeds a work frontier by bounded breadth-first search from
   the root (until roughly [4 * jobs] items are pending), distributes the
   frontier round-robin across per-domain Chase–Lev deques ({!Ws_deque}),
   then fans out across [jobs] domains.  Each domain runs depth-first
   search over its own deque (LIFO bottom); a domain whose deque empties
   steals from a randomly chosen victim's top (lock-free CAS).
   Termination is the idle-counter protocol: a domain decrements the idle
   counter {e before} every steal attempt and re-increments on failure,
   so [idle = jobs] can only be observed when every deque is empty and no
   domain holds work — at that point the search space is exhausted.

   Deduplication goes through one {!Claim_table}, the sequential
   explorer's table too: two-lane fingerprint words (124-bit keys) in a
   flat array claimed under a mutex, on the heap ([Heap]) or in mmap'd
   files under a spill directory ([Spill dir]), so the visited set is
   bounded by disk rather than heap.  [~paranoid] runs claim exact
   canonical keys in an [`Exact] table instead, whatever [visited] says.

   A state is {e claimed} exactly once, by whichever domain's claim
   lands first; only the claimer expands the state, so every state is
   expanded at most once and the explored graph is exactly the
   sequential one.

   What is deterministic and what is not (see DESIGN.md "Parallel
   exploration"): [states], [transitions], [terminals], [hung_terminals],
   [crashed_terminals], [recovered_terminals], [dedup_hits] and
   [source_skips] are schedule-independent — claim-once partitions the
   same reachable set, and each claimed state contributes its fixed
   out-degree — so they agree with the sequential explorer on acyclic
   state graphs (all one-shot bounded algorithms).  [max_depth] and the
   specific witness traces depend on the race for claims; checkers
   built on this module return deterministic verdicts with possibly
   different (equally valid) witnesses.

   Budget exactness: a successful claim draws a ticket from the global
   state counter; tickets below [max_states] are counted ([`Fresh]), the
   first ticket at the budget raises the stop flag and is {e not} counted
   — so a truncated search reports exactly [max_states] states, matching
   the sequential engine.

   Reductions: symmetry quotienting composes (the canonical key is
   computed before the claim, so all orbit members race for one slot),
   and so does the source-set partial-order reduction: work items carry
   their sleep set, the visited key is the canonical {e (state, sleep)}
   pair, and expansion ([Explore.source_successors] — the same function
   the sequential DFS runs) is a deterministic function of that pair.
   Claim-once on pairs therefore reproduces the stateless sleep-set
   search tree with identical subtrees shared, whichever domain claims
   each node and however the Chase–Lev steals interleave — a stolen
   frame prunes exactly as an owner-executed one because everything the
   pruning depends on travels inside the work item.  [source_skips] is
   the per-key skip count summed over claimed keys, so it is as
   deterministic as [states] and [transitions].
   Cycle detection is not offered: back-edges are indistinguishable
   from cross-edges without a per-domain DFS stack discipline, so
   revisits count as [dedup_hits]; [Search.find_cycle] runs the
   sequential DFS. *)

module Obs = Subc_obs

type visited = Heap | Spill of string

let pp_visited ppf v =
  Format.pp_print_string ppf (match v with Heap -> "heap" | Spill _ -> "spill")

(* Auto-sequential fallback: on sub-10^4-state spaces the domain spawn +
   steal traffic costs more than the whole search (E21 measures jobs=2 at
   2-8x slower than jobs=1 on such families), so the seeding pass keeps
   going — it runs the identical claim/expand path — until it has counted
   this many states; only spaces that outlive the threshold pay for
   domains.  [?seq_threshold] overrides it per call (0 restores the old
   eager spawn). *)
let default_seq_threshold = 4096

(* [sleep] is the node's sleep set in the concrete coordinates of the
   item's configuration — carried in the work item so a stolen subtree
   prunes identically to an owner-executed one.

   The configuration itself travels delta-encoded ([Config.Delta]): each
   push extends the parent's chain with the one-proc-slot/one-store-slot
   patch of its transition, so a deque entry retains O(1) fresh words.
   [fp] is the state's homomorphic fingerprint patched from the
   parent's — [Some] exactly on the symmetry-off lanes — which lets
   [claim] skip both the materialization and the re-fold on the hot
   path. *)
type work = {
  delta : Config.Delta.t;
  fp : Fingerprint.t option;
  rev_trace : Trace.event list;
  depth : int;
  sleep : Explore.tr list;
}

type stop_cause = Budget | Deadline | Callback of exn

(* Per-domain statistics: the engines' shared counters, merged after the
   join ([merge_stats]), plus this engine's own work-distribution
   figures. *)
type dstats = {
  counts : Explore.counters;
  mutable pushed_items : int;
  mutable pushed_words : int; (* unique-retention estimate of pushed work *)
  mutable depth_limited : bool;
  mutable steals : int;
  mutable cas_retries : int; (* lost steal races *)
  claim : Claim_table.opstats;
  mutable seconds : float;
}

let fresh_dstats () =
  {
    counts = Explore.fresh_counters ();
    pushed_items = 0;
    pushed_words = 0;
    depth_limited = false;
    steals = 0;
    cas_retries = 0;
    claim = Claim_table.fresh_opstats ();
    seconds = 0.0;
  }

type global = {
  table : Claim_table.t;
  visited : visited;
  deques : work Ws_deque.t array;
  idle : int Atomic.t;
  finished : bool Atomic.t;
  stop : stop_cause option Atomic.t;
  n_states : int Atomic.t;
  max_states : int;
  depth_limit : int;
  max_crashes : int;
  max_recoveries : int;
  deadline_at : float; (* absolute wall clock, or infinity *)
  reduction : Explore.reduction;
  paranoid : bool;
  (* Peak total deque population, sampled every 256 processed items —
     the frontier-memory gauge's item count. *)
  frontier_peak : int Atomic.t;
  jobs : int;
  cb_lock : Mutex.t;
  on_terminal : Config.t -> Trace.t -> unit;
  on_visit : Config.t -> Trace.t Lazy.t -> unit;
}

type ctx = {
  g : global;
  id : int; (* owner index into [deques]; the seeder uses 0 pre-spawn *)
  stats : dstats;
  commute : Explore.commute_cache; (* per-domain independence memo *)
  mutable rng : int; (* xorshift state for victim selection *)
  mutable tick : int; (* items processed; deadline poll every 256 *)
  push : work -> unit;
}

(* First cause wins; workers poll [stop] between items and inside the
   steal loop, so no wake-up broadcast is needed. *)
let set_stop g cause = ignore (Atomic.compare_and_set g.stop None (Some cause))

(* Claim first, ticket second: every ticket below the budget goes to
   exactly one successful claim, so the counted states of a truncated run
   are exactly [max_states]. *)
let[@inline] ticket g pi sleep =
  if Atomic.fetch_and_add g.n_states 1 >= g.max_states then `Budget
  else `Fresh (pi, sleep)

(* Claim [config]'s canonical (state, sleep) key.  [`Fresh (pi, sleep)]
   means this domain owns the node and must expand it — [pi] is the
   canonicalizing renaming and [sleep] the enabled-restricted concrete
   sleep set, both fed to [Explore.source_successors]; [`Dup] means
   another claim got there first; [`Budget] means the global state budget
   is exhausted — the node is left uncounted, so a truncated search
   reports exactly [max_states] states, like the sequential explorer. *)
let claim ctx item config =
  let g = ctx.g in
  (* The carried fingerprint is the claim key, so a duplicate is usually
     rejected without materializing the delta chain. *)
  let key, pi, sleep =
    Explore.node_key ~paranoid:g.paranoid g.reduction
      ~max_crashes:g.max_crashes item.fp config ~sleep:item.sleep
  in
  match Claim_table.claim_key g.table ctx.stats.claim key with
  | `Dup -> `Dup
  | `Fresh -> ticket g pi sleep

(* Expand one work item.  Exceptions from user callbacks propagate to the
   caller (the worker loop converts them into a stop cause); no lock is
   held while a callback runs. *)
let process ctx item =
  let g = ctx.g in
  ctx.tick <- ctx.tick + 1;
  if ctx.tick land 255 = 0 then begin
    if g.deadline_at < infinity && Unix.gettimeofday () > g.deadline_at then
      set_stop g Deadline;
    (* Sample the frontier population for the peak gauge. *)
    let sz =
      Array.fold_left (fun acc d -> acc + Ws_deque.size d) 0 g.deques
    in
    let rec bump () =
      let cur = Atomic.get g.frontier_peak in
      if sz > cur && not (Atomic.compare_and_set g.frontier_peak cur sz) then
        bump ()
    in
    bump ()
  end;
  let c = ctx.stats.counts in
  if item.depth > c.max_depth then c.max_depth <- item.depth;
  if item.depth > g.depth_limit then ctx.stats.depth_limited <- true
  else
    let config = lazy (Config.Delta.materialize item.delta) in
    match claim ctx item config with
    | `Dup -> c.dedup_hits <- c.dedup_hits + 1
    | `Budget -> set_stop g Budget
    | `Fresh (pi, sleep) ->
      let config = Lazy.force config in
      c.states <- c.states + 1;
      Explore.cross_check c ~paranoid:g.paranoid item.fp config;
      g.on_visit config (lazy (List.rev item.rev_trace));
      if Explore.count_terminal c config then begin
        Mutex.lock g.cb_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock g.cb_lock)
          (fun () -> g.on_terminal config (List.rev item.rev_trace))
      end;
      (* The same expansion the sequential DFS runs: enabled transition
         bundles in canonical sibling order, each with the sleep set its
         children inherit.  Deterministic per claimed key, so pushes are
         schedule-independent however the deques drain. *)
      let groups, skips =
        Explore.source_successors ctx.commute g.reduction ~pi
          ~max_crashes:g.max_crashes ~max_recoveries:g.max_recoveries config
          ~sleep
      in
      c.source_skips <- c.source_skips + skips;
      List.iter
        (fun grp ->
          List.iter
            (fun (config', event, slots) ->
              c.transitions <- c.transitions + 1;
              let fp' =
                Explore.child_fingerprint c item.fp config slots config'
              in
              let delta' =
                let i = slots.Step.sl_proc in
                Config.Delta.extend item.delta
                  ~proc_sets:[ (i, config'.Config.procs.(i)) ]
                  ~store_sets:slots.Step.sl_store
              in
              ctx.stats.pushed_items <- ctx.stats.pushed_items + 1;
              ctx.stats.pushed_words <-
                ctx.stats.pushed_words + 7 + Config.Delta.approx_words delta';
              ctx.push
                {
                  delta = delta';
                  fp = fp';
                  rev_trace = event :: item.rev_trace;
                  depth = item.depth + 1;
                  sleep = grp.Explore.g_sleep;
                })
            grp.Explore.g_succs)
        groups

let[@inline] next_rand ctx =
  let x = ctx.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  ctx.rng <- (if x = 0 then 0x9E3779B9 else x);
  ctx.rng

(* A victim with apparently pending work, scanning all peers from a
   random start — [None] when every other deque looks empty. *)
let pick_victim ctx =
  let g = ctx.g in
  let n = g.jobs in
  if n <= 1 then None
  else begin
    let start = next_rand ctx mod n in
    let rec go k =
      if k = n then None
      else
        let v = (start + k) mod n in
        if v <> ctx.id && Ws_deque.size g.deques.(v) > 0 then Some v
        else go (k + 1)
    in
    go 0
  end

(* Steal with idle-counter termination.  The domain is counted idle
   whenever it holds no work; it decrements {e before} a steal attempt
   and re-increments on failure, so observing [idle = jobs] proves every
   domain is workless — and a workless owner's deque is empty (only the
   owner pushes), so nothing remains anywhere and the search is done. *)
let acquire ctx =
  let g = ctx.g in
  Atomic.incr g.idle;
  let rec scan () =
    if Atomic.get g.stop <> None || Atomic.get g.finished then begin
      Atomic.decr g.idle;
      None
    end
    else
      match pick_victim ctx with
      | Some v -> (
        Atomic.decr g.idle;
        match Ws_deque.steal g.deques.(v) with
        | `Stolen w ->
          ctx.stats.steals <- ctx.stats.steals + 1;
          Some w
        | `Empty ->
          Atomic.incr g.idle;
          Domain.cpu_relax ();
          scan ()
        | `Retry ->
          ctx.stats.cas_retries <- ctx.stats.cas_retries + 1;
          Atomic.incr g.idle;
          scan ())
      | None ->
        if Atomic.get g.idle = g.jobs then begin
          Atomic.set g.finished true;
          Atomic.decr g.idle;
          None
        end
        else begin
          Domain.cpu_relax ();
          scan ()
        end
  in
  scan ()

let rec worker ctx =
  if Atomic.get ctx.g.stop <> None then ()
  else
    match Ws_deque.pop ctx.g.deques.(ctx.id) with
    | Some item ->
      (try process ctx item with e -> set_stop ctx.g (Callback e));
      worker ctx
    | None -> (
      match acquire ctx with
      | Some item ->
        (try process ctx item with e -> set_stop ctx.g (Callback e));
        worker ctx
      | None -> ())

(* The domains' counters summed ([max_depth]: the maximum) — the
   schedule-independent half of the merged stats. *)
let sum_counters (all : dstats list) =
  let t = Explore.fresh_counters () in
  List.iter (fun d -> Explore.add_counters t d.counts) all;
  t

let merge_stats g (all : dstats list) (c : Explore.counters) =
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 all in
  let limit_reason =
    match Atomic.get g.stop with
    | Some Budget -> Explore.Max_states
    | Some Deadline -> Explore.Deadline
    | Some (Callback _) | None ->
      if List.exists (fun d -> d.depth_limited) all then Explore.Max_depth
      else Explore.No_limit
  in
  let states = c.Explore.states in
  let frontier_bytes =
    let items = sum (fun d -> d.pushed_items) in
    if items = 0 then 0
    else
      let words = sum (fun d -> d.pushed_words) in
      let peak = max 1 (Atomic.get g.frontier_peak) in
      int_of_float
        (8.0 *. float_of_int peak
        *. (float_of_int words /. float_of_int items))
  in
  Explore.stats_of_counters c ~limit_reason ~frontier_bytes
    ~collision_bound:(Explore.table_bound ~paranoid:g.paranoid ~states)

(* Observability: aggregate counters always; one "parallel" event with
   per-domain breakdown when a sink is installed. *)
let m_states = Obs.Metrics.counter "parallel.states"
let m_steals = Obs.Metrics.counter "parallel.steals"
let m_probes = Obs.Metrics.counter "parallel.probes"
let m_cas_retries = Obs.Metrics.counter "parallel.cas_retries"
let m_source = Obs.Metrics.counter "parallel.source_skips"
let m_searches = Obs.Metrics.counter "parallel.searches"

(* The per-domain d0../steals breakdown below is worker-only; the
   seeding pass's work shows in the merged totals. *)
let emit_obs label g stats (dstats : dstats array) dt =
  Obs.Metrics.incr m_searches;
  Obs.Metrics.add m_states stats.Explore.states;
  Obs.Metrics.add m_source stats.Explore.source_skips;
  Array.iter
    (fun d ->
      Obs.Metrics.add m_steals d.steals;
      Obs.Metrics.add m_probes d.claim.Claim_table.probes;
      Obs.Metrics.add m_cas_retries d.cas_retries)
    dstats;
  let rate = if dt > 0.0 then float_of_int stats.Explore.states /. dt else 0.0 in
  Obs.Metrics.set_gauge "parallel.states_per_sec" rate;
  (* Heap footprint of the visited set, for the bench's memory
     comparison. *)
  Obs.Metrics.set_gauge "parallel.visited_bytes"
    (float_of_int (Claim_table.memory_bytes g.table));
  Obs.Metrics.set_gauge "explore.frontier_bytes"
    (float_of_int stats.Explore.frontier_bytes);
  if Obs.Sink.get () != Obs.Sink.null then
    Obs.Sink.emit "parallel"
      ([
         ("search", Obs.Sink.Str label);
         ("jobs", Obs.Sink.Int g.jobs);
         ("visited", Obs.Sink.Str (Format.asprintf "%a" pp_visited g.visited));
         ("states", Obs.Sink.Int stats.Explore.states);
         ("transitions", Obs.Sink.Int stats.Explore.transitions);
         ("terminals", Obs.Sink.Int stats.Explore.terminals);
         ("dedup_hits", Obs.Sink.Int stats.Explore.dedup_hits);
         ("source_skips", Obs.Sink.Int stats.Explore.source_skips);
         ("collision_bound", Obs.Sink.Float stats.Explore.collision_bound);
         ("limited", Obs.Sink.Bool stats.Explore.limited);
         ("seconds", Obs.Sink.Float dt);
         ("states_per_sec", Obs.Sink.Float rate);
       ]
      @ List.concat
          (List.mapi
             (fun i (d : dstats) ->
               let pfx = Printf.sprintf "d%d." i in
               [
                 (pfx ^ "states", Obs.Sink.Int d.counts.states);
                 ( pfx ^ "states_per_sec",
                   Obs.Sink.Float
                     (if d.seconds > 0.0 then
                        float_of_int d.counts.states /. d.seconds
                      else 0.0) );
                 (pfx ^ "steals", Obs.Sink.Int d.steals);
                 (pfx ^ "probes", Obs.Sink.Int d.claim.Claim_table.probes);
                 (pfx ^ "cas_retries", Obs.Sink.Int d.cas_retries);
               ])
             (Array.to_list dstats)))

let run ~visited ~max_states ~max_depth ~max_crashes ~max_recoveries
    ?deadline ?expected_states ~reduction ~paranoid ?seed_target
    ?seq_threshold ~jobs ~on_terminal ~on_visit label config =
  let jobs = max 1 jobs in
  let seed_stats = fresh_dstats () in
  let root_fp = Explore.root_fingerprint seed_stats.counts reduction config in
  let root =
    {
      delta = Config.Delta.root config;
      fp = root_fp;
      rev_trace = [];
      depth = 0;
      sleep = [];
    }
  in
  let threshold =
    match seed_target with
    | Some _ -> 0
    | None -> (
      match seq_threshold with
      | Some n -> max 0 n
      | None -> default_seq_threshold)
  in
  let g =
    {
      table =
        Claim_table.create ?expected_states
          ?spill:(match visited with Spill dir -> Some dir | Heap -> None)
          (if paranoid then `Exact else `Two_lane);
      visited;
      deques = Array.init jobs (fun _ -> Ws_deque.create ~dummy:root ());
      idle = Atomic.make 0;
      finished = Atomic.make false;
      stop = Atomic.make None;
      n_states = Atomic.make 0;
      max_states;
      depth_limit = max_depth;
      max_crashes;
      max_recoveries;
      deadline_at =
        (match deadline with
        | None -> infinity
        | Some secs -> Unix.gettimeofday () +. secs);
      reduction;
      paranoid;
      frontier_peak = Atomic.make 0;
      jobs;
      cb_lock = Mutex.create ();
      on_terminal;
      on_visit;
    }
  in
  let t0 = Unix.gettimeofday () in
  let queue = Queue.create () in
  Queue.push root queue;
  (* Seed: bounded BFS on the main domain until the frontier is wide
     enough to keep [jobs] domains busy.  The seeder claims and counts
     states through the same [process] path the workers use. *)
  let seed_ctx =
    {
      g;
      id = 0;
      stats = seed_stats;
      commute = Explore.commute_cache ();
      rng = 0x9E3779B9;
      tick = 0;
      push = (fun w -> Queue.push w queue);
    }
  in
  (* [?seed_target] shrinks (or widens) the seeded frontier; the stress
     tests set it to 1 so nearly all distribution happens through steals
     of freshly pushed work rather than the round-robin seeding.  Setting
     it also disables the sequential-fallback threshold — such callers
     want the domains regardless of the space's size. *)
  let target = match seed_target with Some t -> max 1 t | None -> 4 * jobs in
  (try
     while
       (not (Queue.is_empty queue))
       && (Queue.length queue < target || seed_stats.counts.states < threshold)
       && Atomic.get g.stop = None
     do
       process seed_ctx (Queue.pop queue)
     done
   with e -> set_stop g (Callback e));
  Explore.flush_commute_metrics seed_ctx.commute;
  seed_stats.seconds <- Unix.gettimeofday () -. t0;
  let dstats = Array.init jobs (fun _ -> fresh_dstats ()) in
  (* The seeded queue is frontier too: fold it into the peak before the
     per-item sampling takes over. *)
  if Queue.length queue > Atomic.get g.frontier_peak then
    Atomic.set g.frontier_peak (Queue.length queue);
  if (not (Queue.is_empty queue)) && Atomic.get g.stop = None then begin
    (* Distribute the frontier round-robin before spawning: spawn
       provides the happens-before edge publishing the deque contents. *)
    let i = ref 0 in
    Queue.iter
      (fun w ->
        Ws_deque.push g.deques.(!i mod jobs) w;
        incr i)
      queue;
    let domains =
      Array.init jobs (fun i ->
          Domain.spawn (fun () ->
              let w0 = Unix.gettimeofday () in
              let ctx =
                {
                  g;
                  id = i;
                  stats = dstats.(i);
                  commute = Explore.commute_cache ();
                  rng = 0x9E3779B9 * (i + 1);
                  tick = 0;
                  push = (fun w -> Ws_deque.push g.deques.(i) w);
                }
              in
              worker ctx;
              Explore.flush_commute_metrics ctx.commute;
              dstats.(i).seconds <- Unix.gettimeofday () -. w0))
    in
    Array.iter Domain.join domains
  end;
  let dt = Unix.gettimeofday () -. t0 in
  let all = seed_stats :: Array.to_list dstats in
  let counts = sum_counters all in
  let stats = merge_stats g all counts in
  emit_obs label g stats dstats dt;
  Explore.flush_fp_counters ~engine:"Parallel" counts;
  (match Atomic.get g.stop with
  | Some (Callback Explore.Stop) | Some Budget | Some Deadline | None -> ()
  | Some (Callback e) -> raise e);
  stats

(* Domain fan-out over an ordinary list: static index partition (item [i]
   goes to domain [i mod jobs]).  The work items handed to it are few and
   coarse, so static partitioning is enough.  The first exception (in
   item order) is re-raised after all domains join. *)
let map ~jobs f xs =
  let jobs = max 1 jobs in
  if jobs = 1 then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let worker d () =
      let i = ref d in
      while !i < n do
        (out.(!i) <-
           (match f arr.(!i) with
           | y -> Some (Ok y)
           | exception e -> Some (Error e)));
        i := !i + jobs
      done
    in
    let domains =
      Array.init (min jobs (max n 1)) (fun d -> Domain.spawn (worker d))
    in
    Array.iter Domain.join domains;
    Array.to_list out
    |> List.map (function
         | Some (Ok y) -> y
         | Some (Error e) -> raise e
         | None -> assert false)
  end
