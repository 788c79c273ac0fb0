(* Bechamel timing benches (B1–B5 of EXPERIMENTS.md): cost of the
   simulator, the substrates and the checkers; [run_perf] adds the
   fingerprint/multicore performance sweep and writes BENCH_results.json
   (the CI artifact). *)

open Bechamel
open Toolkit
open Subc_sim
module Obs = Subc_obs

(* B1: simulator step rate — one full Algorithm 2 run (k = 6) per
   iteration under a seeded random adversary. *)
let b1_sim_run =
  let k = 6 in
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:false in
  let programs =
    List.init k (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b1: run alg2 k=6 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 42) config)))

(* B2: snapshot implementations — solo update+scan on the register-based
   AADGMS vs the primitive object, n = 8 components. *)
let snapshot_bench name snapshot =
  let store, api = snapshot Store.empty 8 in
  let program =
    let open Program.Syntax in
    let* () = api.Subc_rwmem.Snapshot_api.update ~me:3 (Value.Int 1) in
    api.Subc_rwmem.Snapshot_api.scan
  in
  let config = Config.make store [ program ] in
  Test.make ~name
    (Staged.stage (fun () -> ignore (Runner.run Runner.Round_robin config)))

let b2_snapshot_registers =
  snapshot_bench "b2: snapshot scan (AADGMS, n=8)"
    Subc_rwmem.Snapshot_api.register_based

let b2_snapshot_primitive =
  snapshot_bench "b2: snapshot scan (primitive, n=8)"
    Subc_rwmem.Snapshot_api.primitive

(* B3: model-checker throughput — exhaustive exploration of Algorithm 2,
   k = 4 (hundreds of canonical states). *)
let b3_explore =
  let k = 4 in
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  let programs =
    List.init k (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b3: explore alg2 k=4 (exhaustive)"
    (Staged.stage (fun () ->
         ignore (Search.iter_terminals config ~f:(fun _ _ -> ()))))

(* B4: linearizability checking — a 6-operation 1sWRN history. *)
let b4_linearizability =
  let spec = Subc_objects.One_shot_wrn.model ~k:6 in
  let wrn i v = Op.make "wrn" [ Value.Int i; Value.Int v ] in
  let record proc op result inv res =
    { Subc_check.Linearizability.proc; op; result = Some result; inv; res }
  in
  let history =
    [
      record 0 (wrn 0 100) (Value.Int 101) 0 10;
      record 1 (wrn 1 101) Value.Bot 1 11;
      record 2 (wrn 2 102) Value.Bot 2 12;
      record 3 (wrn 3 103) Value.Bot 3 13;
      record 4 (wrn 4 104) (Value.Int 105) 4 14;
      record 5 (wrn 5 105) Value.Bot 5 15;
    ]
  in
  Test.make ~name:"b4: linearizability check (6-op 1sWRN history)"
    (Staged.stage (fun () ->
         ignore (Subc_check.Linearizability.check ~spec history)))

(* B5: Algorithm 5 end-to-end — one full 3-party run of the implemented
   1sWRN on a random schedule. *)
let b5_alg5 =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b5: run alg5 k=3 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 7) config)))

(* B6: the BG simulation — a full 2-simulators/3-processes run. *)
let b6_bg =
  let codes =
    List.init 3 (fun p ->
        Subc_bgsim.Sim_code.write_then_snapshot (Value.Int (100 + p)) Fun.id)
  in
  let store, bg = Subc_bgsim.Bg.alloc Store.empty ~simulators:2 ~codes in
  let programs = List.init 2 (fun me -> Subc_bgsim.Bg.simulate bg ~me) in
  let config = Config.make store programs in
  Test.make ~name:"b6: run BG simulation 2x3 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 3) config)))

(* B7: protocol-space refutation throughput — one whole k=3, 1-op census
   (144 protocols, each model-checked). *)
let b7_census =
  Test.make ~name:"b7: protocol census k=3 ops=1 (144 protocols)"
    (Staged.stage (fun () ->
         ignore (Subc_classic.Protocol_search.census ~k:3 ~ops:1 ())))

let run_all () =
  Format.printf "@.=== Timing benches (bechamel) ===@.";
  let tests =
    [ b1_sim_run; b2_snapshot_registers; b2_snapshot_primitive; b3_explore;
      b4_linearizability; b5_alg5; b6_bg; b7_census ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"subconsensus" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let ns =
        match Analyze.OLS.estimates r with
        | Some (ns :: _) -> Printf.sprintf "%12.1f ns/run" ns
        | _ -> "estimate unavailable"
      in
      let r2 =
        match Analyze.OLS.r_square r with
        | Some r2 -> Printf.sprintf "r²=%.3f" r2
        | None -> ""
      in
      Format.printf "%-55s %s %s@." name ns r2)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Performance sweep: fingerprint cost and multicore exploration.      *)
(* Results land in BENCH_results.json so CI can archive them and       *)
(* successive runs can be diffed.  Numbers are wall-clock              *)
(* (Unix.gettimeofday — CPU time would sum over domains and hide any   *)
(* speedup); [host_domains] records how many cores the host actually   *)
(* offers, since speedup_vs_1 is bounded by it.                        *)

type bench_result = { name : string; fields : (string * float) list }

let results_file = "BENCH_results.json"

let json_of_results results =
  let field (k, v) =
    (* Plain [%.6g] prints integral floats without a dot; keep them JSON
       numbers either way. *)
    Printf.sprintf "%S: %.6g" k v
  in
  let obj r =
    Printf.sprintf "    {%S: %S, %s}" "name" r.name
      (String.concat ", " (List.map field r.fields))
  in
  let host_domains = Domain.recommended_domain_count () in
  (* Single-core hosts cannot show any parallel speedup: every jobs>1 row
     measures synchronization overhead only, and the consumer of the JSON
     artifact must not read those rows as a scaling regression. *)
  let mode = if host_domains > 1 then "parallel" else "overhead-only" in
  Printf.sprintf
    "{\n  \"host_domains\": %d,\n  \"mode\": %S,\n  \"benches\": [\n%s\n  ]\n}\n"
    host_domains mode
    (String.concat ",\n" (List.map obj results))

let write_results results =
  let oc = open_out results_file in
  output_string oc (json_of_results results);
  close_out oc;
  Format.printf "@.wrote %s (%d benches)@." results_file (List.length results)

(* The legacy fingerprint this PR replaced: MD5 over a marshalled
   canonical key.  Kept here (only here) as the baseline of the
   microbench. *)
let legacy_fingerprint config =
  Digest.string (Marshal.to_string (Config.key config) [])

let time_per_op ~repeat f configs =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to repeat do
    List.iter (fun c -> ignore (Sys.opaque_identity (f c))) configs
  done;
  let dt = Unix.gettimeofday () -. t0 in
  dt /. float_of_int (repeat * List.length configs)

(* P1: per-state fingerprint cost, structural 126-bit hash vs the legacy
   marshal+MD5 pipeline, over a real reachable set (Algorithm 5, k=3). *)
let perf_fingerprint () =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  let configs = ref [] in
  ignore (Search.iter_reachable config ~f:(fun c _ -> configs := c :: !configs));
  let configs = !configs in
  let repeat = 50 in
  let structural_ns =
    1e9 *. time_per_op ~repeat Fingerprint.of_config configs
  in
  let legacy_ns = 1e9 *. time_per_op ~repeat legacy_fingerprint configs in
  (* The explore hot path: producing the child's fingerprint from the
     parent's.  Incremental = patch the slots the transition rewrote
     (O(1)); full = re-fold the whole child ([hom_of_config], what the
     incremental path replaces). *)
  let transitions =
    List.concat_map
      (fun parent ->
        let f = Fingerprint.hom_of_config parent in
        List.concat_map
          (fun i ->
            List.map
              (fun (child, _e, slots) -> (parent, f, slots, child))
              (Step.step_slots parent i))
          (Config.running parent))
      configs
  in
  let patch_ns =
    1e9
    *. time_per_op ~repeat
         (fun (parent, f, slots, child) ->
           Explore.patched_fingerprint parent f slots child)
         transitions
  in
  let hom_refold_ns =
    1e9
    *. time_per_op ~repeat
         (fun (_, _, _, child) -> Fingerprint.hom_of_config child)
         transitions
  in
  Format.printf
    "p1: fingerprint (%d configs): structural %.0f ns, marshal+md5 %.0f ns \
     (%.1fx)@."
    (List.length configs) structural_ns legacy_ns
    (legacy_ns /. structural_ns);
  Format.printf
    "p1: incremental (%d transitions): patch %.0f ns, hom re-fold %.0f ns \
     (%.1fx)@."
    (List.length transitions) patch_ns hom_refold_ns
    (hom_refold_ns /. patch_ns);
  {
    name = "p1.fingerprint";
    fields =
      [
        ("configs", float_of_int (List.length configs));
        ("structural_ns", structural_ns);
        ("legacy_marshal_md5_ns", legacy_ns);
        ("speedup", legacy_ns /. structural_ns);
        ("transitions", float_of_int (List.length transitions));
        ("incremental_patch_ns", patch_ns);
        ("hom_refold_ns", hom_refold_ns);
        ("incremental_speedup", hom_refold_ns /. patch_ns);
      ];
  }

(* Metric deltas around one exploration: the engine adds to the
   process-global counters; subtracting a snapshot isolates one run. *)
let counter_delta names f =
  let read () =
    List.map (fun n -> Option.value ~default:0.0 (Obs.Metrics.find n)) names
  in
  let before = read () in
  let r = f () in
  let after = read () in
  (r, List.map2 (fun a b -> a -. b) after before)

(* The engine called directly, for its [?seq_threshold] knob, with
   [Search.default]'s knobs and a crash budget of one. *)
let parallel_f1 ?seq_threshold ~visited ~jobs label config =
  let o = Search.default in
  fst
    (Parallel.run ~visited ~max_states:o.max_states ~max_depth:o.max_depth
       ~max_crashes:1 ~max_recoveries:o.max_recoveries ~reduction:o.reduction
       ~paranoid:o.paranoid ?seq_threshold ~find_cycle:false ~jobs
       ~on_terminal:(fun _ _ -> ())
       ~on_visit:(fun _ _ -> ())
       label config)

(* P2: exploration throughput across domain counts, over Algorithm 5
   k=3 f=1 (the largest registry family).  Counts are asserted identical
   to the jobs-1 run at every domain count (determinism is part of the
   bench), and each row's speedup is taken against that run;
   wall-clock, states/sec and the contention counters (steals, probes,
   steal CAS retries) are informational — on a single-core host every
   jobs>1 row just measures synchronization overhead. *)
let perf_parallel ~jobs_list () =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  let counter_names =
    [ "parallel.steals"; "parallel.probes"; "parallel.cas_retries" ]
  in
  (* Best-of-[repeat] wall clock: single ~10ms runs are too noisy. *)
  let repeat = 3 in
  let best_of f =
    let best = ref infinity and result = ref None in
    for _ = 1 to repeat do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let explore jobs =
    let (stats, secs), deltas =
      counter_delta counter_names (fun () ->
          best_of (fun () ->
              parallel_f1 ~visited:Parallel.Heap ~jobs "p2" config))
    in
    (stats, secs, List.map (fun d -> d /. float_of_int repeat) deltas)
  in
  let base = explore 1 in
  let base_stats, base_secs, _ = base in
  List.map
    (fun jobs ->
      let stats, secs, deltas = if jobs = 1 then base else explore jobs in
      if
        stats.Explore.states <> base_stats.Explore.states
        || stats.Explore.terminals <> base_stats.Explore.terminals
      then
        Format.printf
          "!! p2 jobs=%d NONDETERMINISM: %d states / %d terminals, expected \
           %d / %d@."
          jobs stats.Explore.states stats.Explore.terminals
          base_stats.Explore.states base_stats.Explore.terminals;
      let rate = float_of_int stats.Explore.states /. secs in
      let visited_bytes =
        Option.value ~default:0.0 (Obs.Metrics.find "parallel.visited_bytes")
      in
      Format.printf
        "p2: explore alg5 k=3 f=1, jobs=%d: %d states, %.3fs, %.0f states/s, \
         speedup %.2fx, visited %.0f bytes@."
        jobs stats.Explore.states secs rate (base_secs /. secs) visited_bytes;
      {
        name = Printf.sprintf "p2.parallel_explore.jobs%d" jobs;
        fields =
          [
            ("jobs", float_of_int jobs);
            ("states", float_of_int stats.Explore.states);
            ("seconds", secs);
            ("states_per_sec", rate);
            ("speedup_vs_seq", base_secs /. secs);
            ("collision_bound", stats.Explore.collision_bound);
            ("visited_bytes", visited_bytes);
          ]
          @ List.map2
              (fun n d ->
                (* "parallel.steals" -> "steals" *)
                (String.sub n 9 (String.length n - 9), d))
              counter_names deltas;
      })
    jobs_list

(* Run [f] back to back, each run after an untimed full major GC, until
   the runs add up to at least [min_total] seconds (and number at least
   three); the median run time in seconds.  Single 3-9 ms shots swing by
   more than the differences these rows are meant to show. *)
let median_run ?(min_total = 0.3) f =
  let times = ref [] and total = ref 0.0 and runs = ref 0 in
  while !total < min_total || !runs < 3 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    times := dt :: !times;
    total := !total +. dt;
    incr runs
  done;
  let a = Array.of_list !times in
  Array.sort compare a;
  a.(Array.length a / 2)

(* P3: orbit minimization over the full symmetric group on 5 processes
   (120 permutations) at the initial configuration, where every renaming
   ties: the worst case for the lazy comparison, which must walk every
   candidate to the end.  [us_per_call] times the explorer's path
   ([Symmetry.canonical_fingerprint]); [reference_us_per_call] times the
   key-tree reference ([canonical_minimizers] plus the [of_value] fold it
   used to need).  The two are asserted to agree. *)
let perf_canonical () =
  let k = 5 in
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  let programs =
    List.init k (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  let sym = Symmetry.standard ~n:k ~input_base:100 `Full in
  let reference () =
    let key, mins = Symmetry.canonical_minimizers sym config in
    (Fingerprint.of_value key, mins)
  in
  let fp, mins = Symmetry.canonical_fingerprint sym config in
  let ref_fp, ref_mins = reference () in
  if not (Fingerprint.equal fp ref_fp && mins = ref_mins) then
    Format.printf "!! p3 canonical_fingerprint disagrees with the key tree@.";
  let batch = 100 in
  let per_call f =
    median_run (fun () ->
        for _ = 1 to batch do
          ignore (Sys.opaque_identity (f ()))
        done)
    /. float_of_int batch
  in
  let fast = per_call (fun () -> Symmetry.canonical_fingerprint sym config) in
  let tree = per_call reference in
  Format.printf
    "p3: canonical_key S_%d (%d perms, %d minimizers): %.1f us/call, key \
     tree %.1f us/call (%.1fx)@."
    k (Symmetry.group_order sym) (List.length mins) (1e6 *. fast) (1e6 *. tree)
    (tree /. fast);
  [
    {
      name = "p3.canonical_key";
      fields =
        [
          ("perms", float_of_int (Symmetry.group_order sym));
          ("us_per_call", 1e6 *. fast);
          ("reference_us_per_call", 1e6 *. tree);
        ];
    };
  ]

(* P4 / E19 artifact rows: the reductions' strength and wall time —
   Algorithm 5 f=1 explored unreduced, with symmetry only, and at full
   reduction (symmetry + source sets): k=3 at each of [jobs_list], k=4 at
   jobs 1.  Counts are deterministic across the jobs axis (E19's claim,
   re-asserted here), so the transition ratios are constants of the
   family.  [seconds] is the median over runs adding up to >= 0.3 s and
   [seconds_vs_none] divides it by the unreduced cell's at the same k and
   jobs: below 1.0 the reduction pays for itself in wall time. *)
let perf_reduction ~jobs_list () =
  let config k =
    let store, t = Subc_core.Alg5.alloc Store.empty ~k () in
    let programs =
      List.init k (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    Config.make store programs
  in
  let reductions k =
    let sym () = Symmetry.standard ~n:k ~input_base:100 `Rotations in
    [
      ("none", Explore.no_reduction);
      ("symmetry", Explore.with_symmetry (sym ()));
      ("full", Explore.full_reduction (sym ()));
    ]
  in
  let explore k reduction jobs () =
    let options =
      Search.(
        default |> with_max_crashes 1 |> with_jobs jobs
        |> with_reduction reduction)
    in
    Search.iter_terminals ~options (config k) ~f:(fun _ _ -> ())
  in
  let cell k jobs (name, red) =
    let stats = explore k red jobs () in
    (name, jobs, stats, median_run (explore k red jobs))
  in
  let rows ~prefix k cells =
    let find name jobs =
      List.find (fun (n, j, _, _) -> n = name && j = jobs) cells
    in
    List.map
      (fun (name, jobs, (stats : Explore.stats), secs) ->
        let _, _, first, _ =
          List.find (fun (n, _, _, _) -> n = name) cells
        in
        if stats.Explore.transitions <> first.Explore.transitions then
          Format.printf
            "!! p4 k=%d %s jobs=%d NONDETERMINISM: %d transitions, expected %d@."
            k name jobs stats.Explore.transitions first.Explore.transitions;
        let _, _, none, none_secs = find "none" jobs in
        let _, _, symmetry, _ = find "symmetry" jobs in
        let ratio (s : Explore.stats) =
          float_of_int s.Explore.transitions
          /. float_of_int (max 1 stats.Explore.transitions)
        in
        Format.printf
          "p4: explore alg5 k=%d f=1, reduction=%s jobs=%d: %d states, %d \
           transitions (%.2fx vs none), %.4fs median (%.2fx of none)@."
          k name jobs stats.Explore.states stats.Explore.transitions
          (ratio none) secs (secs /. none_secs);
        {
          name = Printf.sprintf "%s.%s.jobs%d" prefix name jobs;
          fields =
            [
              ("k", float_of_int k);
              ("jobs", float_of_int jobs);
              ("states", float_of_int stats.Explore.states);
              ("transitions", float_of_int stats.Explore.transitions);
              ("terminals", float_of_int stats.Explore.terminals);
              ("source_skips", float_of_int stats.Explore.source_skips);
              ("seconds", secs);
              ("seconds_vs_none", secs /. none_secs);
              ("ratio_vs_none", ratio none);
              ("ratio_vs_symmetry", ratio symmetry);
            ];
        })
      cells
  in
  let k3 =
    List.concat_map
      (fun red -> List.map (fun jobs -> cell 3 jobs red) jobs_list)
      (reductions 3)
    |> rows ~prefix:"e19.reduction" 3
  in
  k3 @ rows ~prefix:"e19.reduction.k4" 4 (List.map (cell 4 1) (reductions 4))

(* E21 artifact rows: incremental fingerprinting + delta frontiers on
   the end-to-end explore path — per family x reduction x domain count.
   States/sec, fp.patches / fp.refolds deltas and the frontier_bytes
   gauge are the measurement; [bench e21] checks the counts against the
   paranoid exact-key run. *)
let perf_e21 ~jobs_list () =
  let families =
    [
      ( "alg5.k3",
        (fun () ->
          let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
          let programs =
            List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
          in
          (Config.make store programs, Subc_core.Alg5.symmetry t ~input_base:100 ())) );
      ( "alg2.k3",
        (fun () ->
          let store, t = Subc_core.Alg2.alloc Store.empty ~k:3 ~one_shot:true in
          let programs =
            List.init 3 (fun i ->
                Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
          in
          (Config.make store programs, Subc_core.Alg2.symmetry t ~input_base:100 ())) );
    ]
  in
  List.concat_map
    (fun (fam, make) ->
      let config, sym = make () in
      List.concat_map
        (fun (rname, reduction) ->
          List.map
            (fun jobs ->
              let t0 = Unix.gettimeofday () in
              let (stats : Explore.stats), deltas =
                counter_delta [ "fp.patches"; "fp.refolds" ] (fun () ->
                    Search.iter_terminals
                      ~options:
                        Search.(
                          default |> with_max_crashes 1
                          |> with_reduction reduction |> with_jobs jobs)
                      config
                      ~f:(fun _ _ -> ()))
              in
              let secs = Unix.gettimeofday () -. t0 in
              let rate = float_of_int stats.Explore.states /. secs in
              Format.printf
                "e21: %s %s jobs=%d: %d states; %.0f st/s (patches %.0f, \
                 refolds %.0f, frontier %dB)@."
                fam rname jobs stats.Explore.states rate (List.nth deltas 0)
                (List.nth deltas 1) stats.Explore.frontier_bytes;
              {
                name = Printf.sprintf "e21.%s.%s.jobs%d" fam rname jobs;
                fields =
                  [
                    ("jobs", float_of_int jobs);
                    ("states", float_of_int stats.Explore.states);
                    ("transitions", float_of_int stats.Explore.transitions);
                    ("terminals", float_of_int stats.Explore.terminals);
                    ("seconds", secs);
                    ("states_per_sec", rate);
                    ("fp_patches", List.nth deltas 0);
                    ("fp_refolds", List.nth deltas 1);
                    ("frontier_bytes", float_of_int stats.Explore.frontier_bytes);
                  ];
              })
            jobs_list)
        [ ("none", Explore.no_reduction); ("full", Explore.full_reduction sym) ])
    families

(* P6 artifact row: the out-of-core visited table.  [p6.spill_compare]
   runs the engine twice, helpers spawned at the root, on the same
   family at the same domain count — the [Heap] backing vs [Spill] — and records both wall times
   and heap-resident visited bytes.  CI asserts
   [spill_vs_heap_memory <= 0.5]: the spill table's heap residency is
   bookkeeping only (the mapped pages are file-backed).  Both runs'
   counts are diffed against the jobs-1 search, like P2 does. *)
let perf_spill ~jobs_list () =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  let base_stats =
    Search.iter_terminals
      ~options:Search.(default |> with_max_crashes 1)
      config ~f:(fun _ _ -> ())
  in
  let jobs = match List.rev jobs_list with j :: _ -> min j 4 | [] -> 4 in
  (* Best of three; the visited-bytes gauge is read after the last run. *)
  let explore name visited =
    let best = ref infinity and stats = ref base_stats in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      stats :=
        parallel_f1 ~seq_threshold:0 ~visited ~jobs "p6" config;
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    if
      !stats.Explore.states <> base_stats.Explore.states
      || !stats.Explore.terminals <> base_stats.Explore.terminals
    then
      Format.printf
        "!! p6 %s NONDETERMINISM: %d states / %d terminals, expected %d / \
         %d@."
        name !stats.Explore.states !stats.Explore.terminals
        base_stats.Explore.states base_stats.Explore.terminals;
    let bytes =
      Option.value ~default:0.0 (Obs.Metrics.find "parallel.visited_bytes")
    in
    (!best, bytes)
  in
  let heap_secs, heap_bytes = explore "heap" Parallel.Heap in
  let spill_secs, spill_bytes =
    explore "spill" (Parallel.Spill "_perf_spill.tmp")
  in
  let memory = if heap_bytes > 0.0 then spill_bytes /. heap_bytes else 0.0 in
  Format.printf
    "p6: explore alg5 k=3 f=1 jobs=%d: heap %.3fs / %.0f B, spill %.3fs / \
     %.0f B heap (%.2fx)@."
    jobs heap_secs heap_bytes spill_secs spill_bytes memory;
  [
    {
      name = "p6.spill_compare";
      fields =
        [
          ("jobs", float_of_int jobs);
          ("states", float_of_int base_stats.Explore.states);
          ("heap_seconds", heap_secs);
          ("spill_seconds", spill_secs);
          ("heap_visited_bytes", heap_bytes);
          ("spill_heap_bytes", spill_bytes);
          ("spill_vs_heap_memory", memory);
        ];
    };
  ]

(* P7: the auto-sequential fallback ([Parallel.default_seq_threshold]).
   On a space far below the threshold a jobs=4 search is the caller's own
   DFS from root to end: it never spawns a helper, allocates no deque
   and takes no extra lock, so asking for jobs=4 must cost about what
   jobs=1 costs — CI asserts the ratio <= 1.2.  The [eager_ratio] row
   spawns the helpers at the root instead, for contrast. *)
let perf_seq_fallback () =
  let harness () =
    let store, t = Subc_core.Alg2.alloc Store.empty ~k:3 ~one_shot:true in
    Config.make store
      (List.init 3 (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i))))
  in
  let config = harness () in
  let repeat = 200 in
  let per_call f =
    (* Warm up, then time: domain spawn noise is the thing measured. *)
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeat do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int repeat
  in
  let seq_secs =
    per_call (fun () ->
        Search.iter_terminals
          ~options:Search.(default |> with_max_crashes 1)
          config ~f:(fun _ _ -> ()))
  in
  let fallback_secs =
    per_call (fun () ->
        Search.iter_terminals
          ~options:Search.(default |> with_max_crashes 1 |> with_jobs 4)
          config
          ~f:(fun _ _ -> ()))
  in
  let eager_secs =
    per_call (fun () ->
        parallel_f1 ~seq_threshold:0 ~visited:Search.default.visited ~jobs:4
          "p7" config)
  in
  let ratio = if seq_secs > 0.0 then fallback_secs /. seq_secs else 0.0 in
  Format.printf
    "p7: alg2 k=3 f=1 (small space): seq %.0f us, jobs=4 fallback %.0f us \
     (%.2fx), jobs=4 eager %.0f us (%.2fx)@."
    (1e6 *. seq_secs) (1e6 *. fallback_secs) ratio (1e6 *. eager_secs)
    (if seq_secs > 0.0 then eager_secs /. seq_secs else 0.0);
  [
    {
      name = "p7.seq_fallback";
      fields =
        [
          ("threshold", float_of_int Parallel.default_seq_threshold);
          ("seq_us", 1e6 *. seq_secs);
          ("fallback_jobs4_us", 1e6 *. fallback_secs);
          ("eager_jobs4_us", 1e6 *. eager_secs);
          ("small_space_ratio", ratio);
          ( "eager_ratio",
            if seq_secs > 0.0 then eager_secs /. seq_secs else 0.0 );
        ];
    };
  ]

let run_perf ?(jobs_list = [ 1; 2; 4; 8 ]) () =
  Format.printf "@.=== Performance sweep (%s) ===@." results_file;
  let fingerprint = perf_fingerprint () in
  let parallel = perf_parallel ~jobs_list () in
  let canonical = perf_canonical () in
  let reduction =
    perf_reduction ~jobs_list:(List.filter (fun j -> j <= 4) jobs_list) ()
  in
  let e21 =
    perf_e21 ~jobs_list:(List.filter (fun j -> j <= 4) jobs_list) ()
  in
  let spill = perf_spill ~jobs_list () in
  let seq_fallback = perf_seq_fallback () in
  write_results
    ((fingerprint :: parallel) @ canonical @ reduction @ e21
    @ spill @ seq_fallback)
