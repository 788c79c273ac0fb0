(* Traced run: per-layer metrics for the time-to-verdict workloads.

     probe.exe [--workload W] [--seed N] [--out DIR]

   For each workload (all five by default) the probe
   1. runs the check untraced, reading Gc.quick_stat differences and
      engine counters around it;
   2. runs the check again with its terminal (or visit, or per-protocol)
      callback wrapped in spans;
   3. walks the workload's reachable states depth-first, as the engines
      do, calling each layer's public function in the order the engine
      calls it, one span per call (the first [walk_limit] states of the
      budgeted space).
   Per-layer costs come from the walk; the traced check gives the
   checker's own cost and the wall time the layers must add up to.
   Spans stay in memory and are written to DIR/spans-W-seedN.jsonl when
   --out is given.  End-to-end metrics never come from this executable:
   see main.exe.  The last stdout line is the result record (metrics of
   the last workload probed). *)

open Subc_sim
open Bench_workloads
open Workloads
module Lin = Subc_check.Linearizability

(* ----------------------------------------------------------------- spans *)

(* A span is (name, start, end, parent, run).  For the JSONL dump the
   buffer keeps every root span (one per traced phase) and the first
   [span_cap] others; per-name totals cover every span. *)
module Spans = struct
  let span_cap = 1 lsl 18
  let keep = ref false
  let names : (string, int) Hashtbl.t = Hashtbl.create 32
  let name_of = ref [||]
  let buf = ref (Array.make 0 0)
  let stored = ref 0
  let dropped = ref 0
  let next_id = ref 0
  let run = ref 0
  let parent = ref (-1)
  let totals : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 32

  let intern name =
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names name i;
      name_of := Array.append !name_of [| name |];
      i

  let record name_id t0 t1 id parent_id =
    if !keep then
      if !stored < span_cap || parent_id < 0 then begin
        if 6 * (!stored + 1) > Array.length !buf then begin
          let b = Array.make (max 6144 (2 * Array.length !buf)) 0 in
          Array.blit !buf 0 b 0 (Array.length !buf);
          buf := b
        end;
        let o = 6 * !stored in
        let b = !buf in
        b.(o) <- id;
        b.(o + 1) <- name_id;
        b.(o + 2) <- t0;
        b.(o + 3) <- t1;
        b.(o + 4) <- parent_id;
        b.(o + 5) <- !run;
        incr stored
      end
      else incr dropped

  let total name =
    match Hashtbl.find_opt totals name with
    | Some t -> t
    | None ->
      let t = (ref 0, ref 0) in
      Hashtbl.add totals name t;
      t

  (* [time name f] runs [f] inside a span.  Hot paths pass a pre-resolved
     [slot] from {!slot} to skip the table lookups. *)
  type slot = { id_ : int; count : int ref; ns : int ref }

  let slot name =
    let count, ns = total name in
    { id_ = intern name; count; ns }

  let time s f =
    let id = !next_id in
    incr next_id;
    let saved = !parent in
    parent := id;
    let t0 = now_ns () in
    let v = f () in
    let t1 = now_ns () in
    parent := saved;
    incr s.count;
    s.ns := !(s.ns) + (t1 - t0);
    record s.id_ t0 t1 id saved;
    v

  let reset () =
    Hashtbl.reset totals;
    stored := 0;
    dropped := 0;
    parent := -1

  let count name = !(fst (total name))
  let ns name = !(snd (total name))

  let write path =
    Out_channel.with_open_bin path (fun oc ->
        for i = 0 to !stored - 1 do
          let o = 6 * i and b = !buf in
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %s, \"start_ns\": %d, \"end_ns\": %d, \"parent\": %d, \"run\": %d}\n"
            b.(o) (Json.escape !name_of.(b.(o + 1))) b.(o + 2) b.(o + 3) b.(o + 4)
            b.(o + 5)
        done)
end

(* The cost a span adds around its body, measured on empty bodies and
   subtracted from every per-call figure. *)
let span_floor_ns () =
  let s = Spans.slot "calibrate.empty" in
  for _ = 1 to 100_000 do
    Spans.time s ignore
  done;
  float_of_int !(s.Spans.ns) /. float_of_int !(s.Spans.count)

(* -------------------------------------------------------------- results *)

(* A per-layer value: measured, or zero because the layer does not run
   on the workload, or absent because the library no longer publishes the
   counter it derives from. *)
type value = Absent | Off_path | V of float

let per_layer =
  [
    ("step.ns_per_transition", "ns");
    ("fingerprint.patch_ns", "ns");
    ("fingerprint.refold_ns", "ns");
    ("fingerprint.refolds_per_state", "ratio");
    ("symmetry.key_ns", "ns");
    ("source_sets.expand_ns", "ns");
    ("commute.diamonds_per_state", "ratio");
    ("commute.memo_hit_ratio", "ratio");
    ("visited.seq_claim_ns", "ns");
    ("visited.claim_ns", "ns");
    ("visited.probes_per_claim", "ratio");
    ("visited.dedup_ratio", "ratio");
    ("frontier.extend_ns", "ns");
    ("frontier.materialize_ns", "ns");
    ("frontier.bytes", "bytes");
    ("parallel.speedup_vs_jobs1", "ratio");
    ("parallel.cpu_per_wall", "ratio");
    ("parallel.steals_per_kstate", "ratio");
    ("parallel.cas_retries_per_kstate", "ratio");
    ("search.check_us.p50", "us");
    ("search.check_us.p99", "us");
    ("search.minor_words_per_check", "words");
    ("search.empty_us", "us");
    ("checker.lin_us_per_history", "us");
    ("checker.lin_share", "ratio");
    ("progress.self_share", "ratio");
    ("analysis.certify_s", "s");
    ("census.enumerate_s", "s");
    ("gc.minor_words_per_state", "words");
    ("gc.promoted_words_per_state", "words");
    ("gc.major_collections", "count");
    ("trace.unattributed_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

(* --------------------------------------------------- checks, untraced *)

(* Engine counters are read as optional: a counter the library no longer
   publishes is reported absent, never an error. *)
let counters =
  [ "commute.diamonds"; "commute.memo_hits"; "parallel.steals";
    "parallel.cas_retries"; "parallel.probes"; "explore.states" ]

let read_counters () =
  List.map (fun c -> (c, Subc_obs.Metrics.find c)) counters

let counter_delta before after name =
  match (List.assoc name before, List.assoc name after) with
  | Some a, Some b -> Some (b -. a)
  | _ -> None

(* One measured call: wall, CPU, GC and counter differences. *)
type measured = {
  wall : float;
  cpu : float;
  minor : float;
  promoted : float;
  majors : int;
  deltas : string -> float option;
}

let measure f =
  Gc.compact ();
  let g0 = Gc.quick_stat () and k0 = read_counters () in
  let c0 = cpu_s () and t0 = now_ns () in
  let v = f () in
  let wall = seconds_since t0 and cpu = cpu_s () -. c0 in
  let g1 = Gc.quick_stat () and k1 = read_counters () in
  ( v,
    {
      wall;
      cpu;
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
      deltas = counter_delta k0 k1;
    } )

(* ------------------------------------------------------------------ walk *)

(* What the walk saw: per-layer span totals live in [Spans]; these are
   the counts the spans are divided by. *)
type walk = {
  w_states : int;
  w_transitions : int;
  w_refolds : int;
  w_complete : bool;
}

type node = Cfg of Config.t | Delta of Config.Delta.t

type item = { node : node; fp : Fingerprint.t option; sleep : Explore.tr list }

let walk_limit = 200_000

(* Depth-first over the reachable (state, sleep) nodes, claim at pop,
   exactly as the engines key, claim and expand them: the sequential
   engine keys a Fingerprint.Ktbl, the work-stealing engine claims in a
   Claim_table and carries Config.Delta links.  Every layer call sits in
   its own span.  The order matters: a breadth-first walk touches cold
   configurations and overstates every per-call cost by about a third. *)
let walk (options : Search.options) root =
  let reduction = options.Search.reduction in
  let max_crashes = options.Search.max_crashes in
  let sym = reduction.Explore.symmetry <> None in
  let delta = options.Search.jobs > 1 in
  let s_step = Spans.slot "step"
  and s_expand = Spans.slot "source_sets.expand"
  and s_patch = Spans.slot "fingerprint.patch"
  and s_refold = Spans.slot "fingerprint.refold"
  and s_sym = Spans.slot "symmetry.key"
  and s_seq = Spans.slot "visited.seq_claim"
  and s_claim = Spans.slot "visited.claim"
  and s_extend = Spans.slot "frontier.extend"
  and s_mat = Spans.slot "frontier.materialize" in
  let seq_tbl = Fingerprint.Ktbl.create 4096 in
  let claim_tbl = Claim_table.create ~initial_capacity:256 `Two_lane in
  let opstats = Claim_table.fresh_opstats () in
  let cache = Explore.commute_cache () in
  let stack = ref [] in
  let states = ref 0 and transitions = ref 0 in
  let refolds = ref 0 in
  let config_of = function
    | Cfg c -> c
    | Delta d -> Spans.time s_mat (fun () -> Config.Delta.materialize d)
  in
  let root_fp =
    if sym then None
    else begin
      incr refolds;
      Some (Spans.time s_refold (fun () -> Fingerprint.hom_of_config root))
    end
  in
  stack :=
    [ { node = (if delta then Delta (Config.Delta.root root) else Cfg root);
        fp = root_fp; sleep = [] } ];
  while !stack <> [] && !states < walk_limit do
    let it = List.hd !stack in
    stack := List.tl !stack;
    (* Symmetry keys need the configuration; carried fingerprints do not. *)
    let config = lazy (config_of it.node) in
    let fp, pi, sleep =
      match it.fp with
      | Some f ->
        if reduction.Explore.source_sets && it.sleep <> [] then
          Explore.source_fingerprint_from f reduction ~max_crashes
            (Lazy.force config) ~sleep:it.sleep
        else (f, None, [])
      | None ->
        incr refolds;
        Spans.time s_sym (fun () ->
            Explore.source_fingerprint reduction ~max_crashes (Lazy.force config)
              ~sleep:it.sleep)
    in
    let fresh =
      if delta then
        Spans.time s_claim (fun () ->
            Claim_table.claim claim_tbl opstats ~h1:fp.Fingerprint.h1
              ~h2:fp.Fingerprint.h2
            = `Fresh)
      else
        Spans.time s_seq (fun () ->
            let key = Fingerprint.Fp fp in
            if Fingerprint.Ktbl.mem seq_tbl key then false
            else begin
              Fingerprint.Ktbl.add seq_tbl key ();
              true
            end)
    in
    if fresh then begin
      let config = Lazy.force config in
      incr states;
      (* The step alone, timed apart from the expansion that wraps it. *)
      Spans.time s_step (fun () ->
          List.iter (fun i -> ignore (Step.step_slots config i)) (Config.running config);
          if Config.n_crashed config < max_crashes then
            ignore (Step.crash_successors_slots config));
      ignore (Spans.time s_refold (fun () -> Fingerprint.hom_of_config config));
      let groups, _ =
        Spans.time s_expand (fun () ->
            Explore.source_successors cache reduction ~pi ~max_crashes
              ~max_recoveries:options.Search.max_recoveries config ~sleep)
      in
      let children = ref [] in
      List.iter
        (fun g ->
          List.iter
            (fun (child, _, (slots : Step.slots)) ->
              incr transitions;
              let fp' =
                Option.map
                  (fun f ->
                    Spans.time s_patch (fun () ->
                        Explore.patched_fingerprint config f slots child))
                  it.fp
              in
              let node =
                match it.node with
                | Cfg _ -> Cfg child
                | Delta d ->
                  let i = slots.Step.sl_proc in
                  Delta
                    (Spans.time s_extend (fun () ->
                         Config.Delta.extend d
                           ~proc_sets:[ (i, child.Config.procs.(i)) ]
                           ~store_sets:slots.Step.sl_store))
              in
              children := { node; fp = fp'; sleep = g.Explore.g_sleep } :: !children)
            g.Explore.g_succs)
        groups;
      (* The first child is expanded first, as in the engines. *)
      stack := List.rev_append !children !stack
    end
  done;
  {
    w_states = !states;
    w_transitions = !transitions;
    w_refolds = !refolds;
    w_complete = !stack = [];
  }

(* ------------------------------------------------------------- workloads *)

let percentile sorted_arr p =
  let n = Array.length sorted_arr in
  sorted_arr.(min (n - 1) (int_of_float (Float.of_int n *. p)))

let ratio a b = if b = 0. then 0. else a /. b

(* Every answer the probe computes is checked against the pinned one. *)
type tally = { mutable checks : int; mutable failed : int }

type report = { metrics : (string * value) list; tally : tally }

let expect tally w what got =
  tally.checks <- tally.checks + 1;
  if got <> w.pinned then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "%s: %s answered %s, pinned %s\n%!" w.name what
      (answer_to_string got) (answer_to_string w.pinned)
  end

let probe_alg5 w ~seed ~floor =
  let tally = { checks = 0; failed = 0 } in
  let expect = expect tally w in
  let t0 = now_ns () in
  let prepared = prepare w ~seed in
  let setup_s = seconds_since t0 in
  let inst, options, certified =
    match prepared with
    | Lin_check { inst; options } ->
      (inst, options, options.Search.reduction.Explore.symmetry <> None)
    | Wait_free_check { inst; options } -> (inst, options, false)
    | Census_check _ -> assert false
  in
  let jobs = options.Search.jobs in
  let config = Config.make inst.store inst.programs in
  let is_lin = match prepared with Lin_check _ -> true | _ -> false in
  (* 1. untraced *)
  let outcome, m = measure (fun () -> check prepared) in
  expect "the untraced check" outcome.answer;
  (* The loop the traced check wraps: the checker's own exploration. *)
  let explore_with f =
    if is_lin then Search.iter_terminals ~options config ~f
    else Search.iter_reachable ~options config ~f:(fun c _ -> f c [])
  in
  let untraced () =
    snd
      (measure (fun () ->
           if is_lin then ignore (check prepared) else ignore (explore_with (fun _ _ -> ()))))
  in
  let m_before = if is_lin then m else untraced () in
  (* 2. traced *)
  Spans.run := 1;
  let s_check = Spans.slot (if is_lin then "checker.lin" else "progress.visit") in
  let bad = ref 0 in
  let traced_stats, m_traced =
    measure (fun () ->
        Spans.time (Spans.slot "run.traced_check") (fun () ->
            explore_with (fun final trace ->
                Spans.time s_check (fun () ->
                    if is_lin
                       && Lin.check ~spec:inst.spec
                            (Lin.history ~ops:inst.ops final trace)
                          = None
                    then incr bad))))
  in
  tally.checks <- tally.checks + 1;
  if !bad > 0 then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "%s: %d non-linearizable histories in the traced check\n%!" w.name !bad
  end;
  let check_count = !(s_check.Spans.count) and check_ns = !(s_check.Spans.ns) in
  (* The traced check is compared with the mean of the untraced runs on
     either side of it, so neither gets the colder heap. *)
  let m_after = untraced () in
  let untraced_wall = (m_before.wall +. m_after.wall) /. 2. in
  Printf.printf "  untraced %.3f s, traced %.3f s, untraced %.3f s\n" m_before.wall
    m_traced.wall m_after.wall;
  (* 3. the jobs-1 comparison the parallel metrics need *)
  let m_jobs1 =
    if jobs > 1 then
      let prepared1 =
        Lin_check { inst; options = Search.with_jobs 1 options }
      in
      let o1, m1 = measure (fun () -> check prepared1) in
      expect "the jobs-1 check"
        (List.filter (fun (f, _) -> List.mem_assoc f w.pinned) o1.answer);
      Some m1
    else None
  in
  (* 4. walk *)
  Spans.run := 2;
  let t_walk = now_ns () in
  let wk = Spans.time (Spans.slot "run.walk") (fun () -> walk options config) in
  let walk_s = seconds_since t_walk in
  let stats = traced_stats in
  if wk.w_complete && jobs = 1 then begin
    tally.checks <- tally.checks + 1;
    if wk.w_states <> stats.Explore.states || wk.w_transitions <> stats.Explore.transitions
    then begin
      tally.failed <- tally.failed + 1;
      Printf.eprintf "%s: walk saw %d/%d states/transitions, engine %d/%d\n%!" w.name
        wk.w_states wk.w_transitions stats.Explore.states stats.Explore.transitions
    end
  end;
  Printf.printf "  walk: %d states, %d transitions in %.2f s%s\n" wk.w_states
    wk.w_transitions walk_s (if wk.w_complete then "" else " (first states only)");
  (* Per-call cost of a layer in the walk, span floor subtracted. *)
  let per_call name =
    let n = Spans.count name in
    if n = 0 then None
    else Some (Float.max 0. ((float_of_int (Spans.ns name) /. float_of_int n) -. floor))
  in
  let on_path name = match per_call name with Some x -> V x | None -> Off_path in
  let states = float_of_int stats.Explore.states in
  let transitions = float_of_int stats.Explore.transitions in
  let wst = float_of_int wk.w_states and wtr = float_of_int wk.w_transitions in
  let step_per_state = Option.value ~default:0. (per_call "step") in
  let step_per_tr = step_per_state *. wst /. Float.max 1. wtr in
  let expand = Option.value ~default:0. (per_call "source_sets.expand") in
  let cost name = Option.value ~default:0. (per_call name) in
  let checker_total = float_of_int check_ns -. (floor *. float_of_int check_count) in
  (* Time the engine spends in each layer during the traced check: the
     walk's per-call cost times the engine's own call count. *)
  let attributed_ns =
    (step_per_tr *. transitions)
    +. ((expand -. step_per_state) *. states)
    +. (cost "fingerprint.patch" *. transitions)
    +. (cost "symmetry.key" *. (transitions +. 1.))
    +. (cost "visited.seq_claim" *. (transitions +. 1.))
    +. (cost "visited.claim" *. (transitions +. 1.))
    +. (cost "frontier.extend" *. transitions)
    +. (cost "frontier.materialize" *. states)
    +. (if is_lin then checker_total else 0.)
  in
  let domain_ns = m_traced.wall *. 1e9 *. float_of_int jobs in
  let d name = m.deltas name in
  let per_k name = Option.map (fun x -> V (x /. (states /. 1000.))) (d name) in
  let opt = function Some v -> v | None -> Absent in
  let parallel v = if jobs > 1 then v else Off_path in
  let lin v = if is_lin then v else Off_path in
  let metrics =
    [
      ("step.ns_per_transition", V step_per_tr);
      ("fingerprint.patch_ns", on_path "fingerprint.patch");
      ("fingerprint.refold_ns", on_path "fingerprint.refold");
      ("fingerprint.refolds_per_state", V (float_of_int wk.w_refolds /. wst));
      ("symmetry.key_ns", on_path "symmetry.key");
      ( "source_sets.expand_ns",
        if options.Search.reduction.Explore.source_sets && is_lin then V expand
        else Off_path );
      ( "commute.diamonds_per_state",
        opt (Option.map (fun x -> V (x /. states)) (d "commute.diamonds")) );
      ( "commute.memo_hit_ratio",
        opt
          (match (d "commute.memo_hits", d "commute.diamonds") with
          | Some h, Some dm -> Some (V (ratio h (h +. dm)))
          | _ -> None) );
      ("visited.seq_claim_ns", on_path "visited.seq_claim");
      ("visited.claim_ns", on_path "visited.claim");
      ( "visited.probes_per_claim",
        parallel
          (opt
             (Option.map
                (fun p -> V (p /. (states +. float_of_int stats.Explore.dedup_hits)))
                (d "parallel.probes"))) );
      ( "visited.dedup_ratio",
        V
          (float_of_int stats.Explore.dedup_hits
          /. float_of_int (stats.Explore.dedup_hits + stats.Explore.states)) );
      ("frontier.extend_ns", on_path "frontier.extend");
      ("frontier.materialize_ns", on_path "frontier.materialize");
      ("frontier.bytes", V (float_of_int stats.Explore.frontier_bytes));
      ( "parallel.speedup_vs_jobs1",
        match m_jobs1 with Some m1 -> V (m1.wall /. m.wall) | None -> Off_path );
      ("parallel.cpu_per_wall", parallel (V (m.cpu /. m.wall)));
      ("parallel.steals_per_kstate", parallel (opt (per_k "parallel.steals")));
      ("parallel.cas_retries_per_kstate", parallel (opt (per_k "parallel.cas_retries")));
      ("search.check_us.p50", Off_path);
      ("search.check_us.p99", Off_path);
      ("search.minor_words_per_check", Off_path);
      ("search.empty_us", Off_path);
      ( "checker.lin_us_per_history",
        lin (V (checker_total /. float_of_int (max 1 check_count) /. 1000.)) );
      ("checker.lin_share", lin (V (checker_total /. (m_traced.wall *. 1e9))));
      ( "progress.self_share",
        if is_lin then Off_path else V (1. -. (untraced_wall /. m.wall)) );
      ("analysis.certify_s", if certified then V setup_s else Off_path);
      ("census.enumerate_s", Off_path);
      ("gc.minor_words_per_state", V (m.minor /. states));
      ("gc.promoted_words_per_state", V (m.promoted /. states));
      ("gc.major_collections", V (float_of_int m.majors));
      ("trace.unattributed_share", V (1. -. (attributed_ns /. domain_ns)));
      ("trace.overhead_share", V ((m_traced.wall /. untraced_wall) -. 1.));
    ]
  in
  { metrics; tally }

let probe_census w ~seed ~floor =
  let setups =
    List.init 5 (fun _ ->
        let t0 = now_ns () in
        let p = prepare w ~seed in
        (p, seconds_since t0))
  in
  let prepared = fst (List.hd setups) in
  let k, protocols =
    match prepared with
    | Census_check { k; protocols } -> (k, protocols)
    | _ -> assert false
  in
  let tally = { checks = 0; failed = 0 } in
  let outcome, m = measure (fun () -> check prepared) in
  expect tally w "the untraced pass" outcome.answer;
  (* Traced pass: one span per protocol search. *)
  Spans.run := 1;
  let s = Spans.slot "search.check" in
  let n = Array.length protocols in
  let durations = Array.make n 0. in
  let minor = ref 0. in
  let solving = ref 0 in
  let (), m_traced =
    measure (fun () ->
        Spans.time (Spans.slot "run.traced_check") @@ fun () ->
        Array.iteri
          (fun i p ->
            let w0 = Gc.minor_words () in
            let c0 = !(s.Spans.ns) in
            if Spans.time s (fun () -> Subc_classic.Protocol_search.solves_consensus ~k p)
            then incr solving;
            durations.(i) <- float_of_int (!(s.Spans.ns) - c0) -. floor;
            minor := !minor +. (Gc.minor_words () -. w0))
          protocols)
  in
  expect tally w "the traced pass"
    [ ("total", string_of_int n); ("solving", string_of_int !solving) ];
  Array.sort Float.compare durations;
  let outcome, m_after = measure (fun () -> check prepared) in
  expect tally w "the second untraced pass" outcome.answer;
  let untraced_wall = (m.wall +. m_after.wall) /. 2. in
  (* Per-search set-up: a search of a configuration with nothing to run. *)
  Spans.run := 2;
  let empty = Config.make Store.empty [ Program.return (Value.Int 0) ] in
  let s_empty = Spans.slot "search.empty" in
  Spans.time (Spans.slot "run.empty_searches") (fun () ->
      for _ = 1 to 20_000 do
        ignore
          (Spans.time s_empty (fun () -> Search.iter_terminals empty ~f:(fun _ _ -> ())))
      done);
  let empty_ns =
    (float_of_int !(s_empty.Spans.ns) /. float_of_int !(s_empty.Spans.count)) -. floor
  in
  let searched = m.deltas "explore.states" in
  let per_state x = match searched with Some st when st > 0. -> V (x /. st) | _ -> Absent in
  let checked_ns = float_of_int !(s.Spans.ns) -. (floor *. float_of_int n) in
  let off = Off_path in
  let metrics =
    List.map
      (fun (name, _) ->
        ( name,
          match name with
          | "search.check_us.p50" -> V (percentile durations 0.5 /. 1000.)
          | "search.check_us.p99" -> V (percentile durations 0.99 /. 1000.)
          | "search.minor_words_per_check" -> V (!minor /. float_of_int n)
          | "search.empty_us" -> V (empty_ns /. 1000.)
          | "census.enumerate_s" -> V (median (List.map snd setups))
          | "gc.minor_words_per_state" -> per_state m.minor
          | "gc.promoted_words_per_state" -> per_state m.promoted
          | "gc.major_collections" -> V (float_of_int m.majors)
          | "trace.unattributed_share" -> V (1. -. (checked_ns /. (m_traced.wall *. 1e9)))
          | "trace.overhead_share" -> V ((m_traced.wall /. untraced_wall) -. 1.)
          | _ -> off ))
      per_layer
  in
  { metrics; tally }

let probe w ~seed ~out =
  Spans.reset ();
  let floor = span_floor_ns () in
  Spans.reset ();
  Printf.printf "%s  seed %d  (span floor %.1f ns subtracted)\n%!" w.name seed floor;
  let r =
    match w.kind Full with
    | Census _ -> probe_census w ~seed ~floor
    | Lin _ | Wait_free _ -> probe_alg5 w ~seed ~floor
  in
  List.iter
    (fun (name, unit_) ->
      match List.assoc name r.metrics with
      | V x -> Printf.printf "  %-32s %14.6g %s\n" name x unit_
      | Off_path -> Printf.printf "  %-32s %14s (layer not on this workload's path)\n" name "0"
      | Absent -> Printf.printf "  %-32s %14s (counter not published)\n" name "absent")
    per_layer;
  (match out with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed) in
    Spans.write path;
    Printf.printf "  wrote %d spans to %s%s\n" !Spans.stored path
      (if !Spans.dropped > 0 then Printf.sprintf " (%d more not kept)" !Spans.dropped else ""));
  r

let () =
  let workload = ref None and seed = ref 0 and out = ref None in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W probe one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 0)");
      ("--out", Arg.String (fun s -> out := Some s), "DIR write the spans as JSONL under DIR");
      ("--seconds", Arg.Int ignore, "S accepted and ignored: a traced run does fixed work");
      ("--trace", Arg.Int ignore, "1 accepted for symmetry with main.exe");
    ]
  in
  (try
     Arg.parse_argv Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
       "probe.exe [--workload W] [--seed N] [--out DIR]"
   with Arg.Bad msg | Arg.Help msg ->
     prerr_endline msg;
     exit 2);
  let workloads =
    match !workload with
    | None -> all
    | Some name -> (
      match find name with
      | Some w -> [ w ]
      | None ->
        prerr_endline ("unknown workload " ^ name);
        exit 2)
  in
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    !out;
  Spans.keep := !out <> None;
  let reports = List.map (fun w -> probe w ~seed:!seed ~out:!out) workloads in
  let checks = List.fold_left (fun n r -> n + r.tally.checks) 0 reports in
  let failed = List.fold_left (fun n r -> n + r.tally.failed) 0 reports in
  let last = List.nth reports (List.length reports - 1) in
  print_endline
    (result_line ~attempted:checks ~failed
       (List.filter_map
          (fun (name, unit_) ->
            match List.assoc name last.metrics with
            | V x -> Some (name, unit_, x)
            | Off_path -> Some (name, unit_, 0.)
            | Absent -> None)
          per_layer));
  if failed > 0 then exit 1
