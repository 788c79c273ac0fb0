(* The search engine: one recursive depth-first search per domain.

   The calling domain is worker 0.  It runs the DFS from the root and,
   at [jobs > 1], spawns [jobs - 1] helper domains from inside that DFS
   once it has claimed [?seq_threshold] states; smaller spaces never pay
   for a domain.  Helpers begin idle.  Work moves only toward idleness:
   each domain owns one hand-off slot, a [work option Atomic.t].  A
   domain about to recurse into a child offers that child in its slot
   instead, when some domain is idle and the slot is empty; an idle
   domain takes a peer's offer with a compare-and-set to [None], and the
   owner drains its own slot with an exchange.  Every offer is a fresh
   [Some] block and the compare-and-set compares physically, so a stale
   read cannot take a later offer (no ABA).  A work item carries
   everything the DFS needs to resume there: the configuration, its
   carried fingerprint with the winner it was patched under, the trace,
   the depth and the sleep set.
   Termination is the idle-counter protocol: a domain is counted idle
   whenever it holds no work, and decrements the counter {e before}
   every steal attempt and re-increments on failure, so [idle = jobs]
   can only be observed when no domain holds work — and then every slot
   is empty, since only its owner fills it and drains it before going
   idle.  An idle domain that finds no offer spins ([cpu_relax]) and
   scans again, or sleeps [nap_s] first when there are more domains than
   cores, since a spinning thief would then take the core a busy domain
   needs.

   Deduplication goes through one {!Claim_table}: two-lane fingerprint
   words (124-bit keys) in a flat bigarray.  [~paranoid] runs claim exact
   canonical keys in an [`Exact] table instead.
   The table is private to worker 0, and claimed with no lock, until
   [spawn] shares it just before the first [Domain.spawn]; from then on
   each claim takes the table's mutex, spinning briefly before it
   blocks.

   A node is {e claimed} exactly once, by whichever domain's claim lands
   first, and only the claimer expands it; the expansion
   ([Explore.source_successors]) is a pure function of the claimed
   (state, sleep) key.  So [states], [transitions], [terminals],
   [hung_terminals], [crashed_terminals], [recovered_terminals],
   [dedup_hits] and [source_skips] are schedule-independent on acyclic
   state graphs (all one-shot bounded algorithms): every domain count
   reports the one-domain figures, and a stolen subtree prunes exactly as
   an owner-executed one because everything the pruning depends on
   travels inside the work item.  At one domain the DFS visits nodes in
   canonical sibling preorder; [max_depth] and the witness traces of a
   multi-domain search depend on the race for claims.

   Callbacks run on the domain that claimed the node, with no lock held,
   and receive that domain's id (worker 0 is the caller, helpers are
   1 .. jobs - 1), so a caller can keep one accumulator per domain and
   merge them after the join ({!Search.fold_terminals}).

   Budget exactness: a successful claim draws its ticket inside the
   claim itself, from the table's count of claimed keys, so the tickets
   are 0, 1, 2, ... each drawn once; tickets below [max_states] are
   counted, the first ticket at the budget stops the search and is {e
   not} counted — so a truncated search reports exactly [max_states]
   states at any [jobs].

   Every way a search ends — budget, deadline, a callback's [Stop] or
   other exception, a cycle's back-edge — goes through [halt]: the first
   cause lands in [stop] and the domain's DFS unwinds with [Halt]; every
   other domain sees [stop] at its next node or steal attempt and unwinds
   too.  Worker 0 joins every helper before [run] returns.

   A search's figures are its own: each domain counts into its own
   [Explore.counters], merged after the join into the returned stats.
   The process totals ([Subc_obs.Metrics]) are written here alone, once
   per search, from that merged record ([publish]). *)

module Obs = Subc_obs

(* On sub-10^4-state spaces the domain spawn + steal traffic costs more
   than the whole search (eager spawning measured 2-8x slower than one
   domain on such families), so worker 0 spawns its helpers
   only once it has claimed this many states.  [?seq_threshold]
   overrides it per call (0 spawns at the root). *)
let default_seq_threshold = 4096

(* The trace-length budget of every search; a deeper node marks the
   search [Max_depth] and is not expanded. *)
let default_max_depth = 10_000

(* A child handed to an idle domain: the arguments of the [dfs] call the
   offering domain would otherwise have made. *)
type work = {
  config : Config.t;
  fp : Fingerprint.t;
  win : int;
  rev_trace : Trace.event list;
  depth : int;
  sleep : Explore.tr list;
}

type stop_cause = Budget | Deadline | Cycle of Trace.t | Callback of exn

(* Unwinds a domain's DFS once [stop] is set. *)
exception Halt

(* One per domain: the search counters, merged after the join, and the
   claim and commute state whose figures join them when the domain
   finishes ([close]). *)
type ctx = {
  g : global;
  id : int; (* index into the pool's slots *)
  counts : Explore.counters;
  claim : Claim_table.opstats;
  commute : Explore.commute_cache; (* per-domain independence memo *)
  mutable depth_limited : bool;
  mutable tick : int; (* nodes entered; deadline poll every 1024 *)
  (* The claimed-state count at which worker 0 spawns the helpers;
     [max_int] on every other domain and once they are spawned. *)
  mutable spawn_at : int;
  mutable seconds : float;
}

and global = {
  table : Claim_table.t;
  jobs : int;
  (* Written by worker 0 just before it spawns the helpers (the spawn
     publishes it); [None] for a search that never spawns. *)
  mutable pool : pool option;
  stop : stop_cause option Atomic.t;
  max_states : int;
  depth_limit : int;
  max_crashes : int;
  max_recoveries : int;
  deadline_at : float; (* absolute wall clock, or infinity *)
  reduction : Explore.reduction;
  paranoid : bool;
  (* The keys on the DFS stack, kept only when hunting a cycle (one
     domain). *)
  onstack : unit Fingerprint.Ktbl.t option;
  (* Called with the running domain's id, with no lock held. *)
  on_terminal : int -> Config.t -> Trace.t -> unit;
  on_visit : int -> Config.t -> Trace.t Lazy.t -> unit;
}

(* What only a search with helpers needs. *)
and pool = {
  slots : work option Atomic.t array; (* one hand-off slot per domain *)
  mutable helpers : (ctx * unit Domain.t) list;
  idle : int Atomic.t;
  finished : bool Atomic.t;
  (* More domains than cores: an idle domain's scans sleep between
     rounds rather than spin, leaving the core to a domain with work. *)
  nap : bool;
}

let fresh_ctx g id ~spawn_at =
  {
    g;
    id;
    counts = Explore.fresh_counters ();
    claim = Claim_table.fresh_opstats ();
    commute = Explore.commute_cache ();
    depth_limited = false;
    tick = 0;
    spawn_at;
    seconds = 0.0;
  }

(* Run on the domain itself, once its DFS is over. *)
let close ctx =
  Explore.add_commute ctx.counts ctx.commute;
  ctx.counts.probes <- ctx.claim.Claim_table.probes

(* First cause wins; domains poll [stop] at every node and inside the
   steal loop, so no wake-up broadcast is needed. *)
let set_stop g cause = ignore (Atomic.compare_and_set g.stop None (Some cause))

let halt g cause =
  set_stop g cause;
  raise Halt

let poll_mask = 1023

(* Seconds an idle domain of an oversubscribed pool sleeps between empty
   scans: long enough to yield its core, short against a work item. *)
let nap_s = 50e-6

(* Every [poll_mask + 1] nodes: the deadline. *)
let poll g =
  if g.deadline_at < infinity && Unix.gettimeofday () > g.deadline_at then
    halt g Deadline

(* A peer's slot holding an offer, scanning from [id + 1] round to
   [id - 1]: the slot and the offer read there, or [None] when every
   other slot looks empty. *)
let pick_victim ctx p =
  let n = ctx.g.jobs in
  let rec go k =
    if k = n then None
    else
      let slot = p.slots.((ctx.id + k) mod n) in
      match Atomic.get slot with
      | Some _ as offer -> Some (slot, offer)
      | None -> go (k + 1)
  in
  go 1

(* Called by a domain counted idle.  Returns a stolen item with the
   domain no longer counted idle, or [None] once the search is stopped
   or finished: observing [idle = jobs] proves every domain is workless,
   and a workless owner's slot is empty (only the owner fills it, and it
   drains the slot before going idle), so nothing remains anywhere. *)
let rec steal ctx p =
  if Option.is_some (Atomic.get ctx.g.stop) || Atomic.get p.finished then None
  else
    match pick_victim ctx p with
    | Some (slot, offer) ->
      Atomic.decr p.idle;
      if Atomic.compare_and_set slot offer None then begin
        ctx.counts.steals <- ctx.counts.steals + 1;
        offer
      end
      else begin
        (* Another thief, or the draining owner, took it first. *)
        ctx.counts.cas_retries <- ctx.counts.cas_retries + 1;
        Atomic.incr p.idle;
        steal ctx p
      end
    | None ->
      if Atomic.get p.idle = ctx.g.jobs then begin
        Atomic.set p.finished true;
        None
      end
      else begin
        if p.nap then Unix.sleepf nap_s else Domain.cpu_relax ();
        steal ctx p
      end

(* DFS with claim-once memoization on canonical (configuration, sleep)
   keys ([Explore.node_key]).  [rev_trace] is the path from the root,
   newest event first.  Crash and recover transitions are ordinary
   transitions of the search, bounded by budgets the configuration
   itself records.  [sleep] is the sleep set in concrete coordinates:
   transitions covered by a sibling branch.  Source sets only prune
   transitions, never terminals: terminals key by state alone, so
   terminal verdicts and counts are preserved exactly (assuming an
   acyclic state graph; the cycle-hunting and reachability entry points
   force source sets off).  Outside cycle hunting a back-edge is a
   claimed key like any other, a [dedup_hits] count. *)
let rec dfs ctx config fp win rev_trace depth sleep =
  let g = ctx.g and c = ctx.counts in
  (match Atomic.get g.stop with None -> () | Some _ -> raise Halt);
  ctx.tick <- ctx.tick + 1;
  if ctx.tick land poll_mask = 0 then poll g;
  if depth > c.max_depth then c.max_depth <- depth;
  (* Past the depth bound prune this branch only; siblings go on. *)
  if depth > g.depth_limit then ctx.depth_limited <- true
  else begin
    let key, pi, sleep, fp, win =
      Explore.node_key ~paranoid:g.paranoid c g.reduction
        ~max_crashes:g.max_crashes fp win (Lazy.from_val config) ~sleep
    in
    match g.onstack with
    | Some onstack when Fingerprint.Ktbl.mem onstack key ->
      (* Back-edge into the DFS stack: an infinite schedule (modulo
         symmetry, when enabled). *)
      halt g (Cycle (List.rev rev_trace))
    | onstack ->
      let ticket = Claim_table.claim_key g.table ctx.claim key in
      if ticket < 0 then c.dedup_hits <- c.dedup_hits + 1
      else begin
        (* Each ticket goes to exactly one claim: those below the budget
           are counted, the first at it stops the search. *)
        if ticket >= g.max_states then halt g Budget;
        c.states <- c.states + 1;
        if c.states >= ctx.spawn_at then spawn ctx;
        Explore.cross_check c ~paranoid:g.paranoid g.reduction fp win config;
        g.on_visit ctx.id config (lazy (List.rev rev_trace));
        if Explore.count_terminal c config then
          g.on_terminal ctx.id config (List.rev rev_trace);
        let groups, skips =
          Explore.source_successors ctx.commute g.reduction ~pi
            ~max_crashes:g.max_crashes ~max_recoveries:g.max_recoveries
            config ~sleep
        in
        c.source_skips <- c.source_skips + skips;
        (match onstack with
        | Some t -> Fingerprint.Ktbl.add t key ()
        | None -> ());
        (* The closures capture [ctx] alone of the search state: a
           one-domain search runs many tiny DFSs, and every captured
           word is allocated per node. *)
        List.iter
          (fun grp ->
            List.iter
              (fun (config', event, slots) ->
                let c = ctx.counts in
                c.transitions <- c.transitions + 1;
                child ctx config'
                  (Explore.child_fingerprint c g.reduction fp win config slots
                     config')
                  win (event :: rev_trace) (depth + 1) grp.Explore.g_sleep)
              grp.Explore.g_succs)
          groups;
        match onstack with
        | Some t -> Fingerprint.Ktbl.remove t key
        | None -> ()
      end
  end

(* Recurse into a child, or offer it in this domain's slot when some
   domain is idle and the slot is empty. *)
and child ctx config fp win rev_trace depth sleep =
  match ctx.g.pool with
  | Some p
    when Atomic.get p.idle > 0 && Option.is_none (Atomic.get p.slots.(ctx.id))
    ->
    Atomic.set p.slots.(ctx.id)
      (Some { config; fp; win; rev_trace; depth; sleep })
  | _ -> dfs ctx config fp win rev_trace depth sleep

(* Run what this domain's own slot still holds, until it stays empty
   (the domain stays busy). *)
and drain ctx p =
  match Atomic.exchange p.slots.(ctx.id) None with
  | Some w ->
    dfs ctx w.config w.fp w.win w.rev_trace w.depth w.sleep;
    drain ctx p
  | None -> ()

(* Steal, run and drain until the search is finished or stopped; the
   domain is counted idle on entry. *)
and idle_loop ctx p =
  match steal ctx p with
  | Some w ->
    dfs ctx w.config w.fp w.win w.rev_trace w.depth w.sleep;
    drain ctx p;
    Atomic.incr p.idle;
    idle_loop ctx p
  | None -> ()

(* Worker 0, mid-DFS: create the pool and start the helpers, counted
   idle. *)
and spawn ctx =
  let g = ctx.g in
  ctx.spawn_at <- max_int;
  let p =
    {
      slots = Array.init g.jobs (fun _ -> Atomic.make None);
      helpers = [];
      idle = Atomic.make (g.jobs - 1);
      finished = Atomic.make false;
      nap = g.jobs > Domain.recommended_domain_count ();
    }
  in
  g.pool <- Some p;
  (* From here on other domains claim too; the spawns below publish the
     table's lock. *)
  Claim_table.share g.table;
  for id = 1 to g.jobs - 1 do
    let h = fresh_ctx g id ~spawn_at:max_int in
    let d =
      Domain.spawn (fun () ->
          let t0 = Unix.gettimeofday () in
          (try idle_loop h p with Halt -> () | e -> set_stop g (Callback e));
          close h;
          h.seconds <- Unix.gettimeofday () -. t0)
    in
    p.helpers <- (h, d) :: p.helpers
  done

(* The process totals, one handle per name, interned at load.  A search
   adds each non-zero figure once when it ends: an atomic add apiece, no
   lock and no allocation, since a census ends tens of thousands of tiny
   searches. *)
let m_searches = Obs.Metrics.counter "explore.searches"
let m_states = Obs.Metrics.counter "explore.states"
let m_transitions = Obs.Metrics.counter "explore.transitions"
let m_dedup = Obs.Metrics.counter "explore.dedup_hits"
let m_source = Obs.Metrics.counter "explore.source_skips"
let m_patches = Obs.Metrics.counter "fp.patches"
let m_refolds = Obs.Metrics.counter "fp.refolds"
let m_mismatches = Obs.Metrics.counter "fp.paranoid_mismatches"
let m_diamonds = Obs.Metrics.counter "commute.diamonds"
let m_memo_hits = Obs.Metrics.counter "commute.memo_hits"
let m_memo_evictions = Obs.Metrics.counter "commute.memo_evictions"
let m_probes = Obs.Metrics.counter "parallel.probes"
let m_steals = Obs.Metrics.counter "parallel.steals"
let m_cas_retries = Obs.Metrics.counter "parallel.cas_retries"

let add m n = if n <> 0 then Obs.Metrics.add m n

let publish (c : Explore.counters) =
  add m_searches 1;
  add m_states c.states;
  add m_transitions c.transitions;
  add m_dedup c.dedup_hits;
  add m_source c.source_skips;
  add m_patches c.fp_patches;
  add m_refolds c.fp_refolds;
  add m_mismatches c.fp_mismatches;
  add m_diamonds c.diamonds;
  add m_memo_hits c.memo_hits;
  add m_memo_evictions c.memo_evictions;
  add m_probes c.probes;
  add m_steals c.steals;
  add m_cas_retries c.cas_retries

(* One [explore] event per search when a sink is installed, with the
   per-domain breakdown when helpers ran. *)
let emit_event label g (domains : ctx list) (s : Explore.stats) dt =
  if Obs.Sink.get () != Obs.Sink.null then begin
    let rate n secs = if secs > 0.0 then float_of_int n /. secs else 0.0 in
    let per_domain =
      match domains with
      | [ _ ] -> []
      | _ ->
        ("jobs", Obs.Sink.Int g.jobs)
        :: List.concat_map
             (fun d ->
               let pfx = Printf.sprintf "d%d." d.id in
               [
                 (pfx ^ "states", Obs.Sink.Int d.counts.states);
                 (pfx ^ "states_per_sec",
                  Obs.Sink.Float (rate d.counts.states d.seconds));
                 (pfx ^ "steals", Obs.Sink.Int d.counts.steals);
                 (pfx ^ "probes", Obs.Sink.Int d.counts.probes);
                 (pfx ^ "cas_retries", Obs.Sink.Int d.counts.cas_retries);
               ])
             domains
    in
    Obs.Sink.emit "explore"
      ((("search", Obs.Sink.Str label) :: Explore.stats_fields s)
      @ [
          ("seconds", Obs.Sink.Float dt);
          ("states_per_sec", Obs.Sink.Float (rate s.states dt));
        ]
      @ per_domain)
  end

let run ~max_states ?(max_depth = default_max_depth) ~max_crashes
    ~max_recoveries ?deadline ~reduction ~paranoid ?seq_threshold ~find_cycle
    ~jobs ~on_terminal ~on_visit label config =
  let t0 = Unix.gettimeofday () in
  let jobs = if find_cycle then 1 else max 1 jobs in
  let g =
    {
      table = Claim_table.create (if paranoid then `Exact else `Two_lane);
      jobs;
      pool = None;
      stop = Atomic.make None;
      max_states;
      depth_limit = max_depth;
      max_crashes;
      max_recoveries;
      deadline_at =
        (match deadline with None -> infinity | Some secs -> t0 +. secs);
      reduction;
      paranoid;
      onstack = (if find_cycle then Some (Fingerprint.Ktbl.create 16) else None);
      on_terminal;
      on_visit;
    }
  in
  let spawn_at =
    if jobs = 1 then max_int
    else match seq_threshold with Some n -> max 0 n | None -> default_seq_threshold
  in
  let w0 = fresh_ctx g 0 ~spawn_at in
  let root_fp = Explore.root_fingerprint w0.counts reduction config in
  (* Every exception of a domain's work becomes a stop cause. *)
  (try
     dfs w0 config root_fp (-1) [] 0 [];
     match g.pool with
     | Some p ->
       drain w0 p;
       Atomic.incr p.idle;
       idle_loop w0 p
     | None -> ()
   with Halt -> () | e -> set_stop g (Callback e));
  let helpers =
    match g.pool with
    | None -> []
    | Some p ->
      List.iter (fun (_, d) -> Domain.join d) p.helpers;
      List.rev_map fst p.helpers
  in
  close w0;
  let dt = Unix.gettimeofday () -. t0 in
  w0.seconds <- dt;
  let domains = w0 :: helpers in
  let c =
    match helpers with
    | [] -> w0.counts
    | _ ->
      let c = Explore.fresh_counters () in
      List.iter (fun d -> Explore.add_counters c d.counts) domains;
      c
  in
  let limit_reason =
    match Atomic.get g.stop with
    | Some Budget -> Explore.Max_states
    | Some Deadline -> Explore.Deadline
    | Some (Cycle _ | Callback _) | None ->
      if List.exists (fun d -> d.depth_limited) domains then Explore.Max_depth
      else Explore.No_limit
  in
  (* Frontier retention: one frame of unique words (successor config,
     trace cons, a few map spine nodes) per level of each domain's
     deepest path, and one per hand-off slot once helpers ran (a slot
     holds at most one work item).  An estimate for memory accounting,
     not an allocator measurement. *)
  let frontier_bytes =
    if c.states = 0 then 0
    else
      let n = List.length domains in
      8 * (34 + Config.n_procs config)
      * ((n * c.max_depth) + match helpers with [] -> 0 | _ -> n)
  in
  let stats =
    Explore.stats_of_counters c ~limit_reason ~frontier_bytes
      ~collision_bound:(Explore.table_bound ~paranoid ~states:c.states)
      ~visited_bytes:(Claim_table.memory_bytes g.table)
  in
  publish c;
  emit_event label g domains stats dt;
  (* After the publish, so a mismatch stays visible in the totals. *)
  Explore.check_fp_mismatches ~engine:label c;
  match Atomic.get g.stop with
  | Some (Callback Explore.Stop | Budget | Deadline) | None -> (stats, None)
  | Some (Cycle trace) -> (stats, Some trace)
  | Some (Callback e) -> raise e

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
