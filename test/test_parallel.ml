(* The search engine beyond the determinism matrix (test_determinism,
   which also runs every checker at [--jobs 1] and [--jobs N]): budgets,
   callbacks that stop or raise, the small-space fallback, the
   visited-table structures, and the fingerprint
   the engine keys on: injective over every reachable set we explore,
   and equal on equal canonical keys. *)
open Subc_sim
open Helpers

(* Domain count of the multi-domain side of each comparison. *)
let jobs = 4

(* Terminal callbacks fire exactly once per terminal, serialized. *)
let terminal_callback_count () =
  let config = root (Registry.alg2 ~k:3 ~crashes:0) in
  let count = ref 0 in
  let seq =
    Search.iter_terminals
      ~options:Search.(default |> with_max_crashes 1)
      config ~f:(fun _ _ -> ())
  in
  let par =
    Search.iter_terminals
      ~options:
        Search.(
          default |> with_max_crashes 1
          |> with_jobs jobs)
      config ~f:(fun _ _ -> incr count)
  in
  Alcotest.(check int) "callback count = terminals" par.Explore.terminals
    !count;
  Alcotest.(check int) "terminals agree" seq.Explore.terminals
    par.Explore.terminals

(* [Search.fold_terminals] at [jobs] with helpers spawned at the root:
   the per-domain sums merge to the one-domain terminal count, and the
   [f] of [Search.iter_terminals] stays serialized, so a plain counter
   it bumps counts every terminal too.  The engine's [on_visit] gets the
   visiting domain's id, and one count per id sums to the states. *)
let fold_merges_per_domain_sums () =
  let config = root (Registry.alg5 ~k:3) in
  let options = Search.(default |> with_max_crashes 1) in
  let seq = Search.iter_terminals ~options config ~f:(fun _ _ -> ()) in
  let options = Search.with_jobs jobs options in
  let count, par =
    Search.fold_terminals ~options ~seq_threshold:0 config
      ~init:(fun () -> 0)
      ~f:(fun n _ _ -> n + 1)
      ~merge:( + )
  in
  Alcotest.(check int) "merged sum = jobs-1 terminals" seq.Explore.terminals
    count;
  Alcotest.(check int) "terminals agree" seq.Explore.terminals
    par.Explore.terminals;
  (* Ids outside [0, jobs) count in the last cell. *)
  let visits = Array.make (jobs + 1) 0 in
  let s =
    parallel_run ~seq_threshold:0 options config ~on_visit:(fun id _ _ ->
        let i = if id >= 0 && id < jobs then id else jobs in
        visits.(i) <- visits.(i) + 1)
  in
  Alcotest.(check int) "visit ids in [0, jobs)" 0 visits.(jobs);
  Alcotest.(check int) "per-id visits sum to states" s.Explore.states
    (Array.fold_left ( + ) 0 visits);
  (* Read, pause, write: overlapping calls would lose increments. *)
  let plain = ref 0 in
  ignore
    (Search.iter_terminals ~options ~seq_threshold:0 config ~f:(fun _ _ ->
         let n = !plain in
         for _ = 1 to 50 do Domain.cpu_relax () done;
         plain := n + 1));
  Alcotest.(check int) "serialized plain counter = terminals"
    seq.Explore.terminals !plain

(* The max-states budget truncates identically (exactly [max_states]
   states counted, Max_states reported). *)
let budget_truncation () =
  let config = root (Registry.alg5 ~k:3) in
  let budget = 100 in
  let par =
    Search.iter_terminals
      ~options:Search.(default |> with_max_states budget |> with_jobs jobs)
      config ~f:(fun _ _ -> ())
  in
  Alcotest.(check int) "exactly budget states" budget par.Explore.states;
  Alcotest.(check bool) "limited" true par.Explore.limited

(* The budget stays exact while helpers claim: Alg 5 k=4 f=1 at [jobs],
   cut past the default spawn point and, with helpers spawned at the
   root, at a few hundred states — on the two-lane and paranoid
   tables. *)
let budget_truncation_with_helpers () =
  let config = root (Registry.alg5 ~k:4) in
  let tables = [ ("heap", Fun.id); ("paranoid", Search.with_paranoid true) ] in
  List.iter
    (fun (seq_threshold, budget) ->
      List.iter
        (fun (label, table) ->
          let label = Printf.sprintf "%s budget %d" label budget in
          let s =
            Search.iter_terminals ?seq_threshold
              ~options:
                Search.(
                  default |> table |> with_max_crashes 1
                  |> with_max_states budget |> with_jobs jobs)
              config ~f:(fun _ _ -> ())
          in
          Alcotest.(check int) (label ^ " exactly budget states") budget
            s.Explore.states;
          Alcotest.(check bool) (label ^ " limited") true s.Explore.limited)
        tables)
    [ (None, 50_000); (Some 0, 300) ]

(* A space below [default_seq_threshold] never leaves the calling
   domain.  With [~seq_threshold:0] helpers visit part of the same
   space.  Counts agree either way.  The fallback search also creates no
   helper: its one [explore] event carries no [jobs] and no per-domain
   [d1.*] field, and no steal is counted, so at [jobs] > 1 a small space
   runs the jobs-1 per-state path by construction.  The eager search
   shows the fields the fallback lacks. *)
let seq_fallback_stays_on_caller () =
  let config = root (Registry.alg5 ~k:3) in
  let seq =
    Search.iter_reachable
      ~options:Search.(default |> with_max_crashes 1)
      config ~f:(fun _ _ -> ())
  in
  Alcotest.(check bool)
    "space is below the threshold" true
    (seq.Explore.states < Parallel.default_seq_threshold);
  let module Sink = Subc_obs.Sink in
  (* The stats, the visits made off the calling domain and the field
     names of the search's one [explore] event. *)
  let run ?seq_threshold () =
    let elsewhere = Atomic.make 0 in
    let sink, events = Sink.memory () in
    Sink.set sink;
    let stats =
      Fun.protect
        ~finally:(fun () -> Sink.set Sink.null)
        (fun () ->
          parallel_run ?seq_threshold
            ~on_visit:(fun id _ _ -> if id <> 0 then Atomic.incr elsewhere)
            Search.(
              default |> with_max_crashes 1
              |> with_jobs jobs)
            config)
    in
    let fields =
      match List.filter (fun e -> e.Sink.name = "explore") (events ()) with
      | [ e ] -> List.map fst e.Sink.fields
      | es -> Alcotest.failf "%d explore events, not one" (List.length es)
    in
    (stats, Atomic.get elsewhere, fields)
  in
  let per_domain fields =
    ( List.mem "jobs" fields,
      List.exists (String.starts_with ~prefix:"d1.") fields )
  in
  let fallback, off_caller, fields = run () in
  same_counts "fallback" seq fallback;
  Alcotest.(check int) "fallback visits stay on the caller" 0 off_caller;
  Alcotest.(check (pair bool bool))
    "fallback event has no jobs or d1.* field" (false, false)
    (per_domain fields);
  Alcotest.(check int) "fallback steals nothing" 0 fallback.Explore.steals;
  let eager, off_caller, fields = run ~seq_threshold:0 () in
  same_counts "eager" seq eager;
  Alcotest.(check bool) "eager visits reach the workers" true (off_caller > 0);
  Alcotest.(check (pair bool bool))
    "eager event has jobs and d1.* fields" (true, true) (per_domain fields);
  Alcotest.(check bool) "eager helpers steal" true (eager.Explore.steals > 0)

(* The cells where the calling domain raises from its own DFS after it
   has spawned its helpers: [~seq_threshold:64] spawns them at the
   caller's 64th claimed state, and [on_visit] raises [exn] at the
   caller's 200th visit, or sleeps [pause] seconds there. *)
let caller_after_spawn ?(pause = 0.0) ?exn options config =
  let seen = ref 0 in
  parallel_run ~seq_threshold:64
    ~on_visit:(fun id _ _ ->
      if id = 0 then begin
        incr seen;
        if !seen = 200 then begin
          Unix.sleepf pause;
          Option.iter raise exn
        end
      end)
    options config

(* The search after each robustness cell: a jobs=2 search that returns
   the sequential counts, so no domain was left running and no lock
   held. *)
let next_search_is_whole label ~seq small =
  same_counts (label ^ " next search") seq
    (parallel_run ~seq_threshold:0
       Search.(default |> with_max_crashes 1 |> with_jobs 2)
       small)

(* [Search.Stop] raised from a callback ends the search gracefully at
   any [jobs]: no exception escapes and the stats cover part of the
   space.  The worker domains run under [~seq_threshold:0] (this space is
   small); the last cells raise on the calling domain after it spawned
   its helpers mid-DFS, or let the deadline expire then. *)
let stop_from_callback () =
  let config = root (Registry.alg5 ~k:3) in
  let big = root (Registry.alg5 ~k:4) in
  let seq =
    Search.iter_terminals
      ~options:Search.(default |> with_max_crashes 1)
      config ~f:(fun _ _ -> ())
  in
  List.iter
    (fun j ->
      let label = Printf.sprintf "jobs=%d" j in
      let options = Search.(default |> with_max_crashes 1 |> with_jobs j) in
      let seen = Atomic.make 0 in
      let on_terminal _ _ =
        if Atomic.fetch_and_add seen 1 >= 3 then raise Search.Stop
      in
      match
        if j = 1 then Search.iter_terminals ~options config ~f:on_terminal
        else parallel_run ~seq_threshold:0 ~on_terminal options config
      with
      | s ->
        Alcotest.(check bool)
          (label ^ " saw some terminals") true (s.Explore.terminals >= 1);
        Alcotest.(check bool)
          (label ^ " stopped early") true
          (s.Explore.terminals < seq.Explore.terminals)
      | exception e ->
        Alcotest.failf "%s: %s escaped the search" label (Printexc.to_string e))
    [ 1; jobs ];
  let label = "after spawn" in
  let options = Search.(default |> with_jobs 2) in
  (match caller_after_spawn ~exn:Search.Stop options big with
  | s ->
    Alcotest.(check bool)
      (label ^ " stopped early") true (s.Explore.states < 60948);
    Alcotest.(check bool)
      (label ^ " not a budget stop") false s.Explore.limited
  | exception e ->
    Alcotest.failf "%s: %s escaped the search" label (Printexc.to_string e));
  next_search_is_whole label ~seq config;
  let label = label ^ " deadline" in
  (match
     caller_after_spawn ~pause:0.3 (Search.with_deadline 0.1 options) big
   with
  | s ->
    Alcotest.(check bool) (label ^ " limited") true s.Explore.limited;
    Alcotest.(check string)
      (label ^ " reason") "deadline"
      (Format.asprintf "%a" Explore.pp_limit_reason s.Explore.limit_reason)
  | exception e ->
    Alcotest.failf "%s: %s escaped the search" label (Printexc.to_string e));
  next_search_is_whole label ~seq config

exception Boom

(* A non-[Stop] exception from [on_visit] ends a jobs=2 search and
   reaches the caller exactly once, whether a helper raised it or the
   calling domain did after spawning its helpers mid-DFS; a second
   search in the same process then completes with the sequential
   counts, so no lock was left held and no domain left running. *)
let callback_exception_then_next_search () =
  let big = root (Registry.alg5 ~k:4) in
  let small = root (Registry.alg5 ~k:3) in
  let seq =
    Search.iter_terminals
      ~options:Search.(default |> with_max_crashes 1)
      small ~f:(fun _ _ -> ())
  in
  let options = Search.(default |> with_jobs 2) in
  List.iter
    (fun (label, search) ->
      let caught = ref 0 in
      (match search () with
      | _ -> ()
      | exception Boom -> incr caught);
      Alcotest.(check int) (label ^ " raised once on the caller") 1 !caught;
      next_search_is_whole label ~seq small)
    [
      ( "helper",
        fun () ->
          Search.iter_reachable ~options big ~f:(fun _ _ ->
              if not (Domain.is_main_domain ()) then raise Boom) );
      ("caller after spawn", fun () -> caller_after_spawn ~exn:Boom options big);
    ]

(* The per-domain counters merge field by field: every count summed,
   [max_depth] the maximum — the rule the jobs-independent stats rest on. *)
let counters_merge () =
  let c = Explore.fresh_counters () in
  let fields (c : Explore.counters) =
    [
      c.states; c.transitions; c.terminals; c.hung_terminals;
      c.crashed_terminals; c.recovered_terminals; c.max_depth; c.dedup_hits;
      c.source_skips; c.fp_patches; c.fp_refolds; c.fp_mismatches;
      c.diamonds; c.memo_hits; c.memo_evictions; c.probes; c.steals;
      c.cas_retries; c.sym_inherited; c.fp_reused;
    ]
  in
  let fill (c : Explore.counters) base =
    c.states <- base + 1;
    c.transitions <- base + 2;
    c.terminals <- base + 3;
    c.hung_terminals <- base + 4;
    c.crashed_terminals <- base + 5;
    c.recovered_terminals <- base + 6;
    c.max_depth <- base + 7;
    c.dedup_hits <- base + 8;
    c.source_skips <- base + 9;
    c.fp_patches <- base + 10;
    c.fp_refolds <- base + 11;
    c.fp_mismatches <- base + 12;
    c.diamonds <- base + 13;
    c.memo_hits <- base + 14;
    c.memo_evictions <- base + 15;
    c.probes <- base + 16;
    c.steals <- base + 17;
    c.cas_retries <- base + 18;
    c.sym_inherited <- base + 19;
    c.fp_reused <- base + 20
  in
  let a = Explore.fresh_counters () and b = Explore.fresh_counters () in
  fill a 100;
  fill b 20;
  Explore.add_counters c a;
  Explore.add_counters c b;
  Alcotest.(check (list int))
    "summed, max_depth the maximum"
    (List.mapi
       (fun i (x, y) -> if i = 6 (* max_depth *) then max x y else x + y)
       (List.combine (fields a) (fields b)))
    (fields c)

(* An already-expired deadline stops a search whose helpers spawn at
   the root: the helpers poll it too, so the search ends Limited by the
   deadline before the space is done, and the next search is whole. *)
let deadline_with_helpers () =
  let big = root (Registry.alg5 ~k:4) and small = root (Registry.alg5 ~k:3) in
  let seq =
    Search.iter_terminals
      ~options:Search.(default |> with_max_crashes 1)
      small ~f:(fun _ _ -> ())
  in
  let s =
    parallel_run ~seq_threshold:0
      Search.(default |> with_deadline 0.0 |> with_jobs jobs)
      big
  in
  Alcotest.(check bool) "limited" true s.Explore.limited;
  Alcotest.(check string)
    "reason" "deadline"
    (Format.asprintf "%a" Explore.pp_limit_reason s.Explore.limit_reason);
  Alcotest.(check bool) "stopped early" true (s.Explore.states < 60948);
  next_search_is_whole "deadline" ~seq small

(* A search's [visited_bytes] is its table's word array: 16 B per slot,
   a power of two of at least 64 slots, which holds the claimed states
   within its three-quarter limit.  The table's size depends only on how
   many keys were claimed, so a search with helpers spawned at the root
   reports the one-domain figure. *)
let visited_bytes_is_the_table () =
  let config = root (Registry.alg5 ~k:3) in
  let options = Search.(default |> with_max_crashes 1) in
  let one = parallel_run options config in
  let slots = one.Explore.visited_bytes / 16 in
  Alcotest.(check int) "16 B per slot" (16 * slots) one.Explore.visited_bytes;
  Alcotest.(check bool)
    "a power of two of at least 64 slots" true
    (slots >= 64 && slots land (slots - 1) = 0);
  Alcotest.(check bool)
    "the states fit under the limit" true
    (one.Explore.states <= slots - (slots / 4));
  let many =
    parallel_run ~seq_threshold:0 (Search.with_jobs jobs options) config
  in
  same_counts "jobs" one many;
  Alcotest.(check int) "same table size at jobs" one.Explore.visited_bytes
    many.Explore.visited_bytes

(* Injectivity of the fingerprint a search without symmetry keys on
   ([Fingerprint.hom_of_config], the trivial group's image key and the
   re-fold of the carried hash) over an actual reachable set: distinct
   canonical keys must map to distinct fingerprints. *)
let fingerprint_injective () =
  let config = root (Registry.alg5 ~k:3) in
  let keys = Hashtbl.create 4096 in
  let fps = Hashtbl.create 4096 in
  let stats =
    Search.iter_reachable
      ~options:Search.(default |> with_max_crashes 1)
      config ~f:(fun c _ ->
        let key = Config.key c in
        Hashtbl.replace keys key ();
        Hashtbl.replace fps (Fingerprint.hom_of_config c) ())
  in
  Alcotest.(check int) "one key per state" stats.Explore.states
    (Hashtbl.length keys);
  Alcotest.(check int) "one fingerprint per key" (Hashtbl.length keys)
    (Hashtbl.length fps)

(* [Fingerprint.hom_of_config] must agree with [Config.key] equality: the
   fingerprint may depend only on what the canonical key records (e.g.
   it must erase [Running] continuations). *)
let fingerprint_respects_key () =
  let config = root (Registry.alg2 ~k:3 ~crashes:0) in
  let by_key = Hashtbl.create 256 in
  ignore
    (Search.iter_reachable
      ~options:Search.(default |> with_max_crashes 1)
      config ~f:(fun c _ ->
         let key = Config.key c in
         let fp = Fingerprint.hom_of_config c in
         match Hashtbl.find_opt by_key key with
         | None -> Hashtbl.add by_key key fp
         | Some fp' ->
           Alcotest.(check bool)
             "equal keys, equal fingerprints" true
             (Fingerprint.equal fp fp')))

(* Structural distinctions that a sloppy encoding would conflate. *)
let fingerprint_prefix_free () =
  let open Value in
  let distinct a b =
    Alcotest.(check bool)
      (Format.asprintf "%a <> %a" pp a pp b)
      false
      (Fingerprint.equal (Fingerprint.of_value a) (Fingerprint.of_value b))
  in
  distinct (Vec [ Int 1; Int 2 ]) (Pair (Int 1, Int 2));
  distinct (Vec [ Vec [ Int 1 ]; Int 2 ]) (Vec [ Int 1; Vec [ Int 2 ] ]);
  distinct (Vec []) Unit;
  distinct (Sym "ab") (Sym "a");
  distinct (Tag ("a", Int 1)) (Pair (Sym "a", Int 1));
  distinct (Bool false) (Int 0);
  distinct (Int 0) Bot

(* ---------------------------------------------------------------- *)
(* Hand-off slots: work conservation under steal/drain races.        *)

(* Helpers spawned at the root, over several rounds: an offered item is
   taken exactly once, by a thief or by its draining owner, so no node's
   fingerprint is visited twice, the visits sum to the one-domain
   [states], and some hand-offs happen. *)
let slots_conserve_work () =
  let config = root (Registry.alg5 ~k:3) in
  let options = Search.(default |> with_max_crashes 1) in
  let seq = Search.iter_reachable ~options config ~f:(fun _ _ -> ()) in
  let steals = ref 0 in
  for round = 1 to 5 do
    let cell = Printf.sprintf "round %d" round in
    let seen = Array.make jobs [] and hold = handover () in
    let s =
      parallel_run ~seq_threshold:0
        ~on_visit:(fun id c t ->
          hold id c t;
          seen.(id) <- Fingerprint.hom_of_config c :: seen.(id))
        (Search.with_jobs jobs options) config
    in
    same_counts cell seq s;
    steals := !steals + s.Explore.steals;
    let all = Fingerprint.Tbl.create s.Explore.states in
    Array.iter (List.iter (fun fp -> Fingerprint.Tbl.replace all fp ())) seen;
    Alcotest.(check int) (cell ^ " visits") s.Explore.states
      (Array.fold_left (fun n l -> n + List.length l) 0 seen);
    Alcotest.(check int) (cell ^ " distinct visits") s.Explore.states
      (Fingerprint.Tbl.length all)
  done;
  Alcotest.(check bool) "hand-offs happen" true (!steals > 0)

(* Two searches running at once, one per domain, each keep their own
   figures: each run's deterministic figures equal those of the same
   search run alone.  At one domain those include its commute and probe
   counts; at two domains, helpers spawned at the root, only its
   fingerprint counts (which memo meets a node depends on the schedule,
   as does a shared table's probing). *)
let concurrent_runs_keep_their_counts () =
  let config = root (Registry.alg5 ~k:3) in
  let options =
    Search.(default |> with_max_crashes 1 |> with_reduction Explore.source_only)
  in
  let one () = parallel_run options config in
  let two () =
    parallel_run ~seq_threshold:0 (Search.with_jobs 2 options) config
  in
  let one_figures (s : Explore.stats) =
    [ s.fp_patches; s.fp_refolds; s.diamonds; s.memo_hits; s.probes ]
  and two_figures (s : Explore.stats) = [ s.fp_patches; s.fp_refolds ] in
  let one_alone = one () and two_alone = two () in
  let ready = Atomic.make 0 in
  let together =
    Parallel.map ~jobs:2
      (fun run ->
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        run ())
      [ one; two ]
  in
  let positive = List.for_all (fun n -> n > 0) in
  Alcotest.(check bool)
    "every figure counted" true
    (positive (one_figures one_alone) && positive (two_figures two_alone));
  match together with
  | [ one_together; two_together ] ->
    same_counts "jobs 1" one_alone one_together;
    same_counts "jobs 2" two_alone two_together;
    Alcotest.(check (list int))
      "jobs 1 patches, re-folds, diamonds, memo hits, probes"
      (one_figures one_alone) (one_figures one_together);
    Alcotest.(check (list int))
      "jobs 2 patches, re-folds" (two_figures two_alone)
      (two_figures two_together)
  | _ -> assert false

(* A paranoid search and a two-lane one running at once, one per
   domain, each keep their own table: both count what the two-lane
   search counts alone, the exact-key table reports no bytes and a
   collision bound of 0, and the two-lane table its own size. *)
let concurrent_key_modes () =
  let config = root (Registry.alg5 ~k:3) in
  let options = Search.(default |> with_max_crashes 1) in
  let two_lane () = parallel_run options config
  and paranoid () = parallel_run (Search.with_paranoid true options) config in
  let alone = two_lane () in
  let ready = Atomic.make 0 in
  match
    Parallel.map ~jobs:2
      (fun run ->
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        run ())
      [ two_lane; paranoid ]
  with
  | [ t; p ] ->
    same_counts "two-lane" alone t;
    same_counts "paranoid" alone p;
    Alcotest.(check int) "two-lane bytes" alone.Explore.visited_bytes
      t.Explore.visited_bytes;
    Alcotest.(check bool) "two-lane bound positive" true
      (t.Explore.collision_bound > 0.0);
    Alcotest.(check int) "paranoid bytes" 0 p.Explore.visited_bytes;
    Alcotest.(check (float 0.0)) "paranoid bound" 0.0
      p.Explore.collision_bound
  | _ -> assert false

(* ---------------------------------------------------------------- *)
(* Claim table: claim-once under forced probe collisions.            *)

(* [jobs] domains race to claim an overlapping key set whose hashes all
   start probing at the same slot of a deliberately tiny table (so the
   linear probe chains are long and the table doubles many times
   mid-race).  Exactly one domain must win [`Fresh] for each key.  The
   table is shared before the domains start, as the engine shares its
   own. *)
let claim_table_claim_once () =
  let t = Claim_table.create ~initial_capacity:64 `Two_lane in
  Claim_table.share t;
  let n_keys = 4096 in
  (* Low bits constant: every key's probe sequence begins at the same
     slot of the 64-slot table.  High bits keep the keys distinct in
     both lanes. *)
  let h1_of i = (i + 1) lsl 12 in
  let h2_of i = ((i + 1) * 0x9E3779B9) lxor 0x55 in
  let wins = Array.init n_keys (fun _ -> Atomic.make 0) in
  let worker seed () =
    let st = Claim_table.fresh_opstats () in
    (* Each domain visits the keys in a different (full-cycle) order:
       [seed] is odd, hence coprime to the power-of-two key count. *)
    for j = 0 to n_keys - 1 do
      let i = (j * seed) land (n_keys - 1) in
      match Claim_table.claim t st ~h1:(h1_of i) ~h2:(h2_of i) with
      | `Fresh -> Atomic.incr wins.(i)
      | `Dup -> ()
    done;
    st
  in
  let domains = List.init jobs (fun i -> Domain.spawn (worker ((2 * i) + 3))) in
  let stats = List.map Domain.join domains in
  Array.iteri
    (fun i w ->
      if Atomic.get w <> 1 then
        Alcotest.failf "key %d claimed fresh %d times" i (Atomic.get w))
    wins;
  Alcotest.(check int) "occupancy" n_keys (Claim_table.occupancy t);
  Alcotest.(check bool)
    "several doublings" true
    (Claim_table.slots t >= 64 lsl 6);
  (* The clustered hashes force long probe chains: the probe counter
     must reflect that (strictly more probes than claims). *)
  let probes =
    List.fold_left (fun acc st -> acc + st.Claim_table.probes) 0 stats
  in
  Alcotest.(check bool) "probes counted" true (probes > n_keys)

(* A table claimed in private, then shared, as the engine's is at its
   spawn point: the keys claimed before [share] come back [-1] to every
   domain, each other key is fresh for exactly one domain, and the
   tickets are 0 .. n - 1, each drawn once, on every kind of table. *)
let claim_table_private_then_shared () =
  let n_keys = 2048 and n_private = 256 in
  let tables =
    [ ("two-lane", Claim_table.create ~initial_capacity:64 `Two_lane,
       fun i -> Fingerprint.Fp (Fingerprint.of_value (Value.Int i)));
      ("exact", Claim_table.create `Exact, fun i -> Fingerprint.Exact (Value.Int i)) ]
  in
  List.iter
    (fun (label, t, key) ->
      let ops = Claim_table.fresh_opstats () in
      for i = 0 to n_private - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s private key %d ticket" label i)
          i
          (Claim_table.claim_key t ops (key i))
      done;
      Claim_table.share t;
      (* Per key its fresh claims; per ticket the claims that drew it;
         claims of a pre-share key that did not come back [-1]. *)
      let wins = Array.init n_keys (fun _ -> Atomic.make 0) in
      let drawn = Array.init n_keys (fun _ -> Atomic.make 0) in
      let stray = Atomic.make 0 in
      let worker seed () =
        let st = Claim_table.fresh_opstats () in
        for j = 0 to n_keys - 1 do
          let i = (j * seed) land (n_keys - 1) in
          let ticket = Claim_table.claim_key t st (key i) in
          if ticket >= 0 then begin
            Atomic.incr wins.(i);
            if i < n_private || ticket >= n_keys then Atomic.incr stray
            else Atomic.incr drawn.(ticket)
          end
        done
      in
      List.init jobs (fun i -> Domain.spawn (worker ((2 * i) + 3)))
      |> List.iter Domain.join;
      Alcotest.(check int) (label ^ " pre-share keys stay claimed") 0
        (Atomic.get stray);
      Array.iteri
        (fun i w ->
          let expected = if i < n_private then 0 else 1 in
          if Atomic.get w <> expected then
            Alcotest.failf "%s: key %d claimed fresh %d times after share"
              label i (Atomic.get w))
        wins;
      Array.iteri
        (fun ticket d ->
          let expected = if ticket < n_private then 0 else 1 in
          if Atomic.get d <> expected then
            Alcotest.failf "%s: ticket %d drawn %d times after share" label
              ticket (Atomic.get d))
        drawn;
      Alcotest.(check int) (label ^ " occupancy") n_keys
        (Claim_table.occupancy t))
    tables

(* Claim-once on one domain, through growth past the initial capacity,
   including a forced collision: two keys that differ only in bit 62 of
   each lane, which the stored words drop, are one key to the table —
   the documented ~2^-124 per-pair risk. *)
let claim_table_forced_collision () =
  let t = Claim_table.create ~initial_capacity:64 `Two_lane in
  let ops = Claim_table.fresh_opstats () in
  for i = 1 to 200 do
    let h1 = (i * 0x9E37) lxor 0x55 and h2 = i * 7919 in
    Alcotest.(check bool)
      (Printf.sprintf "key %d fresh" i)
      true
      (Claim_table.claim t ops ~h1 ~h2 = `Fresh);
    Alcotest.(check bool)
      (Printf.sprintf "key %d dup" i)
      true
      (Claim_table.claim t ops ~h1 ~h2 = `Dup)
  done;
  Alcotest.(check int) "occupancy" 200 (Claim_table.occupancy t);
  Alcotest.(check bool)
    "grew past the initial capacity" true
    (Claim_table.slots t > 64);
  let h1 = 123456789 and h2 = 987654321 in
  Alcotest.(check bool)
    "collided key fresh once" true
    (Claim_table.claim t ops ~h1 ~h2 = `Fresh);
  Alcotest.(check bool)
    "collided key dup after" true
    (Claim_table.claim t ops ~h1:(h1 lxor min_int) ~h2:(h2 lxor min_int)
    = `Dup);
  Alcotest.(check bool)
    "lane 2 still tells keys apart" true
    (Claim_table.claim t ops ~h1 ~h2:(h2 + 1) = `Fresh);
  Alcotest.(check bool) "probes counted" true (ops.Claim_table.probes > 0);
  Alcotest.(check int)
    "16 B per slot" (16 * Claim_table.slots t) (Claim_table.memory_bytes t)

(* A fresh two-lane table has the asked capacity rounded up to a power
   of two, at least 64 slots, at 16 B each; it doubles at the first
   fresh key past three quarters of its slots. *)
let claim_table_capacity () =
  List.iter
    (fun (asked, slots) ->
      let t = Claim_table.create ~initial_capacity:asked `Two_lane in
      let label = Printf.sprintf "asked %d" asked in
      Alcotest.(check int) (label ^ " slots") slots (Claim_table.slots t);
      Alcotest.(check int)
        (label ^ " bytes") (16 * slots)
        (Claim_table.memory_bytes t);
      Alcotest.(check int) (label ^ " empty") 0 (Claim_table.occupancy t))
    [ (1, 64); (64, 64); (65, 128); (100, 128); (1000, 1024) ];
  let t = Claim_table.create `Two_lane in
  let ops = Claim_table.fresh_opstats () in
  let claim i =
    Claim_table.claim t ops ~h1:((i * 0x9E37) lxor 0x55) ~h2:(i * 7919)
  in
  for i = 1 to 48 do
    ignore (claim i)
  done;
  Alcotest.(check int) "48 keys fit in 64 slots" 64 (Claim_table.slots t);
  Alcotest.(check bool) "a known key is no fresh key" true (claim 48 = `Dup);
  Alcotest.(check int) "a duplicate does not grow" 64 (Claim_table.slots t);
  Alcotest.(check bool) "the 49th key is fresh" true (claim 49 = `Fresh);
  Alcotest.(check int) "and doubles the table" 128 (Claim_table.slots t)

(* An [`Exact] table holds whole keys and no word array: tickets in
   claim order, no slots and no bytes.  A two-lane claim in it is
   refused, as is an exact key in a two-lane table. *)
let claim_table_exact () =
  let t = Claim_table.create ~initial_capacity:4096 `Exact in
  let ops = Claim_table.fresh_opstats () in
  let key i = Fingerprint.Exact (Value.Int i) in
  for i = 0 to 499 do
    Alcotest.(check int)
      (Printf.sprintf "key %d ticket" i)
      i
      (Claim_table.claim_key t ops (key i))
  done;
  Alcotest.(check int) "a known key" (-1) (Claim_table.claim_key t ops (key 7));
  Alcotest.(check int) "occupancy" 500 (Claim_table.occupancy t);
  Alcotest.(check int) "no slots" 0 (Claim_table.slots t);
  Alcotest.(check int) "no bytes" 0 (Claim_table.memory_bytes t);
  let refused f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool)
    "two-lane claim refused" true
    (refused (fun () -> Claim_table.claim t ops ~h1:1 ~h2:2));
  let two_lane = Claim_table.create `Two_lane in
  Alcotest.(check bool)
    "exact key refused by a two-lane table" true
    (refused (fun () -> Claim_table.claim_key two_lane ops (key 0)))

(* Tables created at once, one per domain, share nothing: each domain's
   private table draws its own tickets 0 .. n - 1 for the same keys,
   each in the order its domain claims them. *)
let claim_tables_independent () =
  let n_keys = 1024 in
  let ready = Atomic.make 0 in
  let worker seed () =
    Atomic.incr ready;
    while Atomic.get ready < jobs do
      Domain.cpu_relax ()
    done;
    let t = Claim_table.create `Two_lane in
    let ops = Claim_table.fresh_opstats () in
    let stray = ref 0 in
    for j = 0 to n_keys - 1 do
      let i = (j * seed) land (n_keys - 1) in
      let key = Fingerprint.Fp (Fingerprint.of_value (Value.Int i)) in
      if Claim_table.claim_key t ops key <> j then incr stray;
      if Claim_table.claim_key t ops key <> -1 then incr stray
    done;
    (!stray, Claim_table.occupancy t)
  in
  List.init jobs (fun i -> Domain.spawn (worker ((2 * i) + 3)))
  |> List.map Domain.join
  |> List.iteri (fun d (stray, occupancy) ->
         Alcotest.(check int)
           (Printf.sprintf "domain %d tickets in its claim order" d)
           0 stray;
         Alcotest.(check int)
           (Printf.sprintf "domain %d occupancy" d)
           n_keys occupancy)

(* ---------------------------------------------------------------- *)
(* Parallel.map.                                                     *)

let map_preserves_order () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "map ~jobs = List.map" (List.map (fun x -> x * x) xs)
    (Parallel.map ~jobs (fun x -> x * x) xs)

let map_propagates_exceptions () =
  Alcotest.check_raises "exception surfaces" (Failure "boom") (fun () ->
      ignore
        (Parallel.map ~jobs
           (fun x -> if x = 13 then failwith "boom" else x)
           (List.init 20 (fun i -> i))))

(* A duplicate reached across a commutation diamond is claimed before
   it is built, and never stepped.  Both processes write their own
   counted register twice, unreduced: the space is the 3x3 grid of
   (writes by P0, writes by P1), and each of its duplicates is the far
   corner of a diamond whose near side the same domain stepped one level
   up.  So at one domain the registers see one [apply] per transition
   minus one per duplicate.  Helpers spawned at the root keep the counts,
   but a domain that steals a subtree did not step the near sides of its
   diamonds, so there only the bounds hold: every claimed state is
   stepped once, no transition twice. *)
let commuted_duplicate_never_stepped () =
  let run ?seq_threshold jobs =
    let applies, config = counted_writers () in
    let s =
      parallel_run ?seq_threshold Search.(default |> with_jobs jobs) config
    in
    (s, Atomic.get applies)
  in
  let s, applies = run 1 in
  Alcotest.(check int) "the grid's transitions" 12 s.Explore.transitions;
  Alcotest.(check int) "one apply per transition, none per duplicate"
    (s.Explore.transitions - s.Explore.dedup_hits) applies;
  Alcotest.(check bool) "fewer applies than transitions" true
    (applies < s.Explore.transitions);
  Alcotest.(check bool) "each duplicate keyed by reuse" true
    (s.Explore.fp_reused >= s.Explore.dedup_hits);
  let p, applies = run ~seq_threshold:0 jobs in
  same_counts "helpers at the root" s p;
  Alcotest.(check bool) "helpers: each claimed state stepped once" true
    (applies >= p.Explore.transitions - p.Explore.dedup_hits);
  Alcotest.(check bool) "helpers: no transition stepped twice" true
    (applies <= p.Explore.transitions);
  Alcotest.(check int) "helpers: each transition patched or reused"
    p.Explore.transitions
    (p.Explore.fp_patches + p.Explore.fp_reused)

let suite =
  [
    ( "parallel.stats",
      [
        test "terminal callbacks serialized, once per terminal"
          terminal_callback_count;
        test "fold_terminals merges per-domain sums"
          fold_merges_per_domain_sums;
        test "max-states budget truncates identically" budget_truncation;
        test "max-states budget is exact while helpers claim"
          budget_truncation_with_helpers;
        test "small spaces stay on the calling domain"
          seq_fallback_stays_on_caller;
        test "Stop from a callback is graceful" stop_from_callback;
        test "a callback exception surfaces once; the next search runs"
          callback_exception_then_next_search;
        test "an expired deadline stops helpers spawned at the root"
          deadline_with_helpers;
        test "merged counters: summed, max_depth the maximum" counters_merge;
        test "visited_bytes is the table's word array"
          visited_bytes_is_the_table;
      ] );
    ( "parallel.reuse",
      [
        test "a commuted duplicate is never stepped"
          commuted_duplicate_never_stepped;
      ] );
    ( "parallel.structures",
      [
        test_slow "claim table claims each key exactly once"
          claim_table_claim_once;
        test "claim table: private claims, then shared tickets"
          claim_table_private_then_shared;
        test "hand-off slots conserve work under steal/drain races"
          slots_conserve_work;
        test "concurrent runs keep their own counts"
          concurrent_runs_keep_their_counts;
        test "claim table claims once (forced collisions)"
          claim_table_forced_collision;
        test "claim table capacity: powers of two, doubled at 3/4"
          claim_table_capacity;
        test "exact claim table: tickets, no word array" claim_table_exact;
        test "claim tables made at once keep their own tickets"
          claim_tables_independent;
        test "concurrent paranoid and two-lane searches keep their tables"
          concurrent_key_modes;
      ] );
    ( "parallel.fingerprint",
      [
        test "fingerprint injective over reachable set" fingerprint_injective;
        test "equal canonical keys give equal fingerprints"
          fingerprint_respects_key;
        test "structural encoding is prefix-free" fingerprint_prefix_free;
      ] );
    ( "parallel.map",
      [
        test "preserves order" map_preserves_order;
        test "propagates exceptions" map_propagates_exceptions;
      ] );
  ]
