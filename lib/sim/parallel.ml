(* The search engine: one recursive depth-first search per domain.

   The calling domain is worker 0.  It runs the DFS from the root and,
   at [jobs > 1], spawns [jobs - 1] helper domains from inside that DFS
   once it has claimed [?seq_threshold] states; smaller spaces never pay
   for a domain.  Helpers begin idle.  Work moves only toward idleness:
   a domain about to recurse into a child pushes that child onto its own
   Chase–Lev deque ({!Ws_deque}) instead, when some domain is idle and
   its own deque is empty, and an idle domain steals from a random
   victim's top (lock-free CAS).  A work item carries everything the DFS
   needs to resume there: the configuration, its carried fingerprint,
   the trace, the depth and the sleep set.  Termination is the
   idle-counter protocol: a domain is counted idle whenever it holds no
   work, and decrements the counter {e before} every steal attempt and
   re-increments on failure, so [idle = jobs] can only be observed when
   every deque is empty and no domain holds work.

   Deduplication goes through one {!Claim_table}: two-lane fingerprint
   words (124-bit keys) in a flat array claimed under a mutex, on the
   heap ([Heap]) or in mmap'd files under a spill directory
   ([Spill dir]), so the visited set is bounded by disk rather than
   heap.  [~paranoid] runs claim exact canonical keys in an [`Exact]
   table instead, whatever [visited] says.

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

   Callbacks run on the domain that claimed the node, with no lock held:
   [on_terminal] receives that domain's id (worker 0 is the caller,
   helpers are 1 .. jobs - 1), so a caller can keep one accumulator per
   domain and merge them after the join ({!Search.fold_terminals}).

   Budget exactness: a successful claim draws a ticket from the global
   state counter; tickets below [max_states] are counted, the first
   ticket at the budget stops the search and is {e not} counted — so a
   truncated search reports exactly [max_states] states at any [jobs].

   Every way a search ends — budget, deadline, a callback's [Stop] or
   other exception, a cycle's back-edge — goes through [halt]: the first
   cause lands in [stop] and the domain's DFS unwinds with [Halt]; every
   other domain sees [stop] at its next node or steal attempt and unwinds
   too.  Worker 0 joins every helper before [run] returns. *)

module Obs = Subc_obs

type visited = Heap | Spill of string

let pp_visited ppf v =
  Format.pp_print_string ppf (match v with Heap -> "heap" | Spill _ -> "spill")

(* On sub-10^4-state spaces the domain spawn + steal traffic costs more
   than the whole search (eager spawning measured 2-8x slower than one
   domain on such families), so worker 0 spawns its helpers
   only once it has claimed this many states.  [?seq_threshold]
   overrides it per call (0 spawns at the root). *)
let default_seq_threshold = 4096

(* A child handed to an idle domain: the arguments of the [dfs] call the
   pusher would otherwise have made. *)
type work = {
  config : Config.t;
  fp : Fingerprint.t option;
  rev_trace : Trace.event list;
  depth : int;
  sleep : Explore.tr list;
}

type stop_cause = Budget | Deadline | Cycle of Trace.t | Callback of exn

(* Unwinds a domain's DFS once [stop] is set. *)
exception Halt

(* One per domain: the search counters, merged after the join, plus this
   domain's work-distribution figures. *)
type ctx = {
  g : global;
  id : int; (* index into the pool's deques *)
  counts : Explore.counters;
  claim : Claim_table.opstats;
  commute : Explore.commute_cache; (* per-domain independence memo *)
  mutable depth_limited : bool;
  mutable steals : int;
  mutable cas_retries : int; (* lost steal races *)
  mutable rng : int; (* xorshift state for victim selection *)
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
  n_states : int Atomic.t;
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
  on_visit : Config.t -> Fingerprint.t option -> Trace.t Lazy.t -> unit;
}

(* What only a search with helpers needs. *)
and pool = {
  deques : work Ws_deque.t array;
  mutable helpers : (ctx * unit Domain.t) list;
  idle : int Atomic.t;
  finished : bool Atomic.t;
  (* Peak total deque population, sampled at every poll. *)
  frontier_peak : int Atomic.t;
}

let fresh_ctx g id ~spawn_at =
  {
    g;
    id;
    counts = Explore.fresh_counters ();
    claim = Claim_table.fresh_opstats ();
    commute = Explore.commute_cache ();
    depth_limited = false;
    steals = 0;
    cas_retries = 0;
    rng = 0x9E3779B9 * (id + 1);
    tick = 0;
    spawn_at;
    seconds = 0.0;
  }

(* First cause wins; domains poll [stop] at every node and inside the
   steal loop, so no wake-up broadcast is needed. *)
let set_stop g cause = ignore (Atomic.compare_and_set g.stop None (Some cause))

let halt g cause =
  set_stop g cause;
  raise Halt

let poll_mask = 1023

(* Every [poll_mask + 1] nodes: the deadline, and the frontier
   population for the peak gauge. *)
let poll g =
  if g.deadline_at < infinity && Unix.gettimeofday () > g.deadline_at then
    halt g Deadline;
  match g.pool with
  | None -> ()
  | Some p ->
    let sz = Array.fold_left (fun acc d -> acc + Ws_deque.size d) 0 p.deques in
    let rec bump () =
      let cur = Atomic.get p.frontier_peak in
      if sz > cur && not (Atomic.compare_and_set p.frontier_peak cur sz) then
        bump ()
    in
    bump ()

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
let pick_victim ctx p =
  let n = ctx.g.jobs in
  let start = next_rand ctx mod n in
  let rec go k =
    if k = n then None
    else
      let v = (start + k) mod n in
      if v <> ctx.id && Ws_deque.size p.deques.(v) > 0 then Some v
      else go (k + 1)
  in
  go 0

(* Called by a domain counted idle.  Returns a stolen item with the
   domain no longer counted idle, or [None] once the search is stopped
   or finished: observing [idle = jobs] proves every domain is workless,
   and a workless owner's deque is empty (only the owner pushes), so
   nothing remains anywhere. *)
let rec steal ctx p =
  if Option.is_some (Atomic.get ctx.g.stop) || Atomic.get p.finished then None
  else
    match pick_victim ctx p with
    | Some v -> (
      Atomic.decr p.idle;
      match Ws_deque.steal p.deques.(v) with
      | `Stolen w ->
        ctx.steals <- ctx.steals + 1;
        Some w
      | `Empty ->
        Atomic.incr p.idle;
        Domain.cpu_relax ();
        steal ctx p
      | `Retry ->
        ctx.cas_retries <- ctx.cas_retries + 1;
        Atomic.incr p.idle;
        steal ctx p)
    | None ->
      if Atomic.get p.idle = ctx.g.jobs then begin
        Atomic.set p.finished true;
        None
      end
      else begin
        Domain.cpu_relax ();
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
let rec dfs ctx config fp rev_trace depth sleep =
  let g = ctx.g and c = ctx.counts in
  (match Atomic.get g.stop with None -> () | Some _ -> raise Halt);
  ctx.tick <- ctx.tick + 1;
  if ctx.tick land poll_mask = 0 then poll g;
  if depth > c.max_depth then c.max_depth <- depth;
  (* Past the depth bound prune this branch only; siblings go on. *)
  if depth > g.depth_limit then ctx.depth_limited <- true
  else begin
    let key, pi, sleep =
      Explore.node_key ~paranoid:g.paranoid g.reduction
        ~max_crashes:g.max_crashes fp (Lazy.from_val config) ~sleep
    in
    match g.onstack with
    | Some onstack when Fingerprint.Ktbl.mem onstack key ->
      (* Back-edge into the DFS stack: an infinite schedule (modulo
         symmetry, when enabled). *)
      halt g (Cycle (List.rev rev_trace))
    | onstack -> (
      match Claim_table.claim_key g.table ctx.claim key with
      | `Dup -> c.dedup_hits <- c.dedup_hits + 1
      | `Fresh ->
        (* Claim first, ticket second: every ticket below the budget
           goes to exactly one successful claim. *)
        if Atomic.fetch_and_add g.n_states 1 >= g.max_states then
          halt g Budget;
        c.states <- c.states + 1;
        if c.states >= ctx.spawn_at then spawn ctx config;
        Explore.cross_check c ~paranoid:g.paranoid fp config;
        g.on_visit config fp (lazy (List.rev rev_trace));
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
                  (Explore.child_fingerprint c fp config slots config')
                  (event :: rev_trace) (depth + 1) grp.Explore.g_sleep)
              grp.Explore.g_succs)
          groups;
        match onstack with
        | Some t -> Fingerprint.Ktbl.remove t key
        | None -> ())
  end

(* Recurse into a child, or hand it over when some domain is idle and
   this domain's own deque is empty. *)
and child ctx config fp rev_trace depth sleep =
  match ctx.g.pool with
  | Some p when Atomic.get p.idle > 0 && Ws_deque.size p.deques.(ctx.id) = 0 ->
    Ws_deque.push p.deques.(ctx.id) { config; fp; rev_trace; depth; sleep }
  | _ -> dfs ctx config fp rev_trace depth sleep

(* Everything this domain's own deque still holds (it stays busy). *)
and drain ctx p =
  match Ws_deque.pop p.deques.(ctx.id) with
  | Some w ->
    dfs ctx w.config w.fp w.rev_trace w.depth w.sleep;
    drain ctx p
  | None -> ()

(* Steal, run and drain until the search is finished or stopped; the
   domain is counted idle on entry. *)
and idle_loop ctx p =
  match steal ctx p with
  | Some w ->
    dfs ctx w.config w.fp w.rev_trace w.depth w.sleep;
    drain ctx p;
    Atomic.incr p.idle;
    idle_loop ctx p
  | None -> ()

(* Worker 0, mid-DFS: create the pool and start the helpers, counted
   idle. *)
and spawn ctx config =
  let g = ctx.g in
  ctx.spawn_at <- max_int;
  let dummy = { config; fp = None; rev_trace = []; depth = 0; sleep = [] } in
  let p =
    {
      deques = Array.init g.jobs (fun _ -> Ws_deque.create ~dummy ());
      helpers = [];
      idle = Atomic.make (g.jobs - 1);
      finished = Atomic.make false;
      frontier_peak = Atomic.make 0;
    }
  in
  g.pool <- Some p;
  for id = 1 to g.jobs - 1 do
    let h = fresh_ctx g id ~spawn_at:max_int in
    let d =
      Domain.spawn (fun () ->
          let t0 = Unix.gettimeofday () in
          (try idle_loop h p with Halt -> () | e -> set_stop g (Callback e));
          Explore.flush_commute_metrics h.commute;
          h.seconds <- Unix.gettimeofday () -. t0)
    in
    p.helpers <- (h, d) :: p.helpers
  done

let m_searches = Obs.Metrics.counter "explore.searches"
let m_states = Obs.Metrics.counter "explore.states"
let m_transitions = Obs.Metrics.counter "explore.transitions"
let m_dedup = Obs.Metrics.counter "explore.dedup_hits"
let m_source = Obs.Metrics.counter "explore.source_skips"
let m_steals = Obs.Metrics.counter "parallel.steals"
let m_probes = Obs.Metrics.counter "parallel.probes"
let m_cas_retries = Obs.Metrics.counter "parallel.cas_retries"

(* Observability, one set per search: the counters always, and one
   [explore] event when a sink is installed — with the per-domain
   breakdown when helpers ran. *)
let emit_obs label g (domains : ctx list) (s : Explore.stats) dt =
  Obs.Metrics.incr m_searches;
  Obs.Metrics.add m_states s.states;
  Obs.Metrics.add m_transitions s.transitions;
  Obs.Metrics.add m_dedup s.dedup_hits;
  Obs.Metrics.add m_source s.source_skips;
  List.iter
    (fun d ->
      Obs.Metrics.add m_steals d.steals;
      Obs.Metrics.add m_probes d.claim.Claim_table.probes;
      Obs.Metrics.add m_cas_retries d.cas_retries)
    domains;
  Obs.Metrics.set_gauge "explore.frontier_bytes" (float_of_int s.frontier_bytes);
  (* Heap footprint of the visited set, for the test suite's spill
     against heap comparison. *)
  Obs.Metrics.set_gauge "parallel.visited_bytes"
    (float_of_int (Claim_table.memory_bytes g.table));
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
                 (pfx ^ "steals", Obs.Sink.Int d.steals);
                 (pfx ^ "probes", Obs.Sink.Int d.claim.Claim_table.probes);
                 (pfx ^ "cas_retries", Obs.Sink.Int d.cas_retries);
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

let run ~visited ~max_states ~max_depth ~max_crashes ~max_recoveries
    ?deadline ~reduction ~paranoid ?seq_threshold ~find_cycle ~jobs ~on_terminal ~on_visit label config =
  let t0 = Unix.gettimeofday () in
  let jobs = if find_cycle then 1 else max 1 jobs in
  let g =
    {
      table =
        Claim_table.create
          ?spill:(match visited with Spill dir -> Some dir | Heap -> None)
          (if paranoid then `Exact else `Two_lane);
      jobs;
      pool = None;
      stop = Atomic.make None;
      n_states = Atomic.make 0;
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
     dfs w0 config root_fp [] 0 [];
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
  Explore.flush_commute_metrics w0.commute;
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
     deepest path, and one per work item at the deques' peak.  An
     estimate for memory accounting, not an allocator measurement. *)
  let frontier_bytes =
    if c.states = 0 then 0
    else
      8 * (34 + Config.n_procs config)
      * ((List.length domains * c.max_depth)
        + match g.pool with Some p -> Atomic.get p.frontier_peak | None -> 0)
  in
  let stats =
    Explore.stats_of_counters c ~limit_reason ~frontier_bytes
      ~collision_bound:(Explore.table_bound ~paranoid ~states:c.states)
  in
  emit_obs label g domains stats dt;
  Explore.flush_fp_counters ~engine:label c;
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
