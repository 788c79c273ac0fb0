(* Fault injection: wait-free safety must survive arbitrary crashes — a
   crashed process is indistinguishable from a slow one, so validity and
   agreement hold on the partial outcomes.  Also exercises the
   linearizability checker's incomplete-operation path. *)
open Subc_sim
open Helpers
module Task = Subc_tasks.Task
module Task_check = Subc_check.Task_check
module Lin = Subc_check.Linearizability

let assert_no_crash_violations stats =
  if stats.Task_check.violations > 0 then
    Alcotest.failf "crash violations: %a" Task_check.pp_sample_stats stats

(* A task family's instance at crash budget [f] (so its task does not
   ask a crashed process to decide), over [runs] seeded runs that each
   crash up to [f] random processes. *)
let crash_safety (h : Subc_check.Harness.t) ~f runs =
  match h.property with
  | Task { inputs; task } ->
    assert_no_crash_violations
      (Task_check.sample ~max_crashes:f h.store ~programs:h.programs ~inputs
         ~task ~seeds:(seeds runs))
  | Other p -> invalid_arg p

let alg2_crash_safety ~k () =
  crash_safety (Registry.alg2 ~k ~crashes:(k - 1)) ~f:(k - 1) 150

let alg6_crash_safety ~n ~k () =
  crash_safety (Registry.alg6 ~n ~k ~crashes:(n - 1)) ~f:(n - 1) 150

let alg3_crash_safety () =
  crash_safety
    (Registry.alg3 ~flavor:Subc_core.Alg3.Relaxed_wrn
       ~renamer:Subc_core.Alg3.Rename_immediate ~ids:[ 9; 2; 14 ] ~crashes:2)
    ~f:2 100

let sse_object_crash_safety () =
  let k = 3 in
  let store, h =
    Store.alloc Store.empty (Subc_objects.Sse_obj.model ~k ~j:(k - 1))
  in
  let programs =
    List.init k (fun i ->
        Program.map (fun w -> Value.Int w) (Subc_objects.Sse_obj.propose h i))
  in
  let inputs = List.init k (fun i -> Value.Int i) in
  let task = Task.strong_set_election (k - 1) in
  assert_no_crash_violations
    (Task_check.sample ~max_crashes:(k - 1) store ~programs ~inputs ~task
       ~seeds:(seeds 150))

(* Algorithm 5 under crashes: every partial execution's history — with its
   incomplete operations — must still linearize against the 1sWRN spec. *)
let alg5_crash_linearizability () =
  let k = 3 in
  let config = root (Registry.alg5 ~k) in
  let ops i = Op.make "wrn" [ Value.Int i; Value.Int (100 + i) ] in
  let spec = Subc_objects.One_shot_wrn.model ~k in
  let incomplete_seen = ref 0 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let prefix = Random.State.int rng 20 in
      let survivor = Random.State.int rng k in
      let before = Runner.run ~max_steps:prefix (Runner.Random seed) config in
      let after = Runner.run (Runner.Only [ survivor ]) before.Runner.final in
      let trace = before.Runner.trace @ after.Runner.trace in
      let history = Lin.history ~ops after.Runner.final trace in
      if List.exists (fun r -> r.Lin.result = None) history then
        incr incomplete_seen;
      match Lin.check ~spec history with
      | Some _ -> ()
      | None ->
        Alcotest.failf "crashed run not linearizable (seed %d):@.%a" seed
          Lin.pp_history history)
    (seeds 200);
  Alcotest.(check bool) "some runs had incomplete operations" true
    (!incomplete_seen > 0)

(* --- exhaustive crash sweeps (the model checker quantifies over crash
   patterns as well as interleavings) ------------------------------------ *)

(* Acceptance criterion: Alg 2 k=3 verified exhaustively under every crash
   pattern with at most 2 crashes. *)
let alg2_exhaustive_crash_sweep () =
  List.iter
    (fun (f, expect_states) ->
      let h = Registry.alg2 ~k:3 ~crashes:f in
      match
        Search.check_terminals
          ~options:Search.(default |> with_max_crashes f)
          (root h)
          ~ok:(fun c -> h.explain c = None)
      with
      | Ok stats ->
        Alcotest.(check bool)
          (Printf.sprintf "f=%d not truncated" f)
          false stats.Explore.limited;
        Alcotest.(check int)
          (Printf.sprintf "f=%d states" f)
          expect_states stats.Explore.states;
        if f > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "f=%d reached crashed terminals" f)
            true
            (stats.Explore.crashed_terminals > 0)
      | Error (_, trace, _) ->
        Alcotest.failf "f=%d: crash pattern breaks safety:@.%a" f Trace.pp
          trace)
    [ (0, 16); (1, 31); (2, 37) ]

(* --- determinism of the crash adversaries ----------------------------- *)

(* The crash-only adversaries: the fault adversaries with no recovery. *)
let crash_random ~seed ~max_crashes =
  Runner.Recover_random { seed; max_crashes; max_recoveries = 0 }

let crash_at crashes ~seed =
  Runner.Recover_after { crashes; recoveries = []; seed }

let crash_random_deterministic () =
  let config = root (Registry.alg2 ~k:4 ~crashes:0) in
  List.iter
    (fun seed ->
      let run () =
        Runner.run (crash_random ~seed ~max_crashes:3) config
      in
      let a = run () and b = run () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: identical trace" seed)
        (Trace.to_string a.Runner.trace)
        (Trace.to_string b.Runner.trace);
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: identical crash victims" seed)
        (Trace.crashes a.Runner.trace)
        (Trace.crashes b.Runner.trace))
    (seeds 20)

(* A crash-containing trace is a complete certificate: replaying it
   reproduces the terminal configuration, crashes included. *)
let crash_trace_replays () =
  let config = root (Registry.alg2 ~k:4 ~crashes:0) in
  let replayed_crashes = ref 0 in
  List.iter
    (fun seed ->
      let r = Runner.run (crash_random ~seed ~max_crashes:3) config in
      match Replay.final config r.Runner.trace with
      | Error { at; reason } ->
        Alcotest.failf "seed %d: replay failed at %d: %s" seed at reason
      | Ok final ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: same decisions" seed)
          true
          (Config.decisions final = Config.decisions r.Runner.final);
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d: same crashed set" seed)
          (Config.crashed r.Runner.final)
          (Config.crashed final);
        if Config.crashed final <> [] then incr replayed_crashes)
    (seeds 30);
  Alcotest.(check bool) "some replayed runs contained crashes" true
    (!replayed_crashes > 0)

let crash_at_deterministic () =
  let config = root (Registry.alg2 ~k:4 ~crashes:0) in
  let strategy = crash_at [ (1, 1); (2, 0) ] ~seed:(Some 5) in
  let a = Runner.run strategy config and b = Runner.run strategy config in
  Alcotest.(check string) "identical trace"
    (Trace.to_string a.Runner.trace)
    (Trace.to_string b.Runner.trace);
  Alcotest.(check (list int)) "both victims died" [ 0; 1 ]
    (Config.crashed a.Runner.final)

(* The crash-only runs keep, event for event, the traces of the
   dedicated crash adversaries they replaced (scripted crashes at steps,
   seeded or round-robin; seeded random crashes), recorded on Algorithm
   5 at k=3. *)
let crash_only_traces_pinned () =
  let config = root (Registry.alg5 ~k:3) in
  List.iter
    (fun (name, strategy, want) ->
      Alcotest.(check string)
        name want
        (Trace.to_string (Runner.run strategy config).Runner.trace))
    [
      ( "scripted, seed 5",
        crash_at [ (1, 1); (4, 0) ] ~seed:(Some 5),
        "  0. P2: #2:snapshot.update(2, 102) -> ()\n  1. P1: CRASH\n\
        \  2. P2: #1:register.read -> opened\n\
        \  3. P0: #2:snapshot.update(0, 100) -> ()\n\
        \  4. P2: #1:register.write(closed) -> ()\n  5. P0: CRASH\n\
        \  6. P2: #0:strong_set_election(3,2).propose(2) -> 2\n" );
      ( "scripted, round-robin",
        crash_at [ (1, 1); (4, 0) ] ~seed:None,
        "  0. P0: #2:snapshot.update(0, 100) -> ()\n  1. P1: CRASH\n\
        \  2. P2: #2:snapshot.update(2, 102) -> ()\n\
        \  3. P0: #1:register.read -> opened\n\
        \  4. P2: #1:register.read -> opened\n  5. P0: CRASH\n\
        \  6. P2: #1:register.write(closed) -> ()\n\
        \  7. P2: #0:strong_set_election(3,2).propose(2) -> 2\n" );
      ( "random, seed 7919",
        crash_random ~seed:7919 ~max_crashes:2,
        "  0. P0: #2:snapshot.update(0, 100) -> ()\n\
        \  1. P0: #1:register.read -> opened\n\
        \  2. P2: #2:snapshot.update(2, 102) -> ()\n  3. P0: CRASH\n\
        \  4. P2: #1:register.read -> opened\n  5. P2: CRASH\n\
        \  6. P1: #2:snapshot.update(1, 101) -> ()\n\
        \  7. P1: #1:register.read -> opened\n\
        \  8. P1: #1:register.write(closed) -> ()\n\
        \  9. P1: #0:strong_set_election(3,2).propose(1) -> 1\n" );
    ]

(* --- progress properties ---------------------------------------------- *)

module Progress = Subc_check.Progress
module Verdict = Subc_check.Verdict

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A process spinning on a register until a second process writes it.
   With [~checkpoint] each round resets its history, so its solo path
   revisits a configuration; without, the history grows at every read
   and no configuration repeats. *)
let spinner_harness ~checkpoint =
  let store, reg = Store.alloc Store.empty Subc_objects.Register.model_bot in
  let spinner =
    let open Program.Syntax in
    let rec spin () =
      let* () =
        if checkpoint then Program.checkpoint (Value.Sym "spin")
        else Program.return ()
      in
      let* v = Subc_objects.Register.read reg in
      if Value.is_bot v then spin () else Program.return v
    in
    spin ()
  in
  let writer =
    let open Program.Syntax in
    let* () = Subc_objects.Register.write reg (Value.Int 1) in
    Program.return (Value.Int 1)
  in
  (store, [ spinner; writer ])

(* Acceptance criterion: a deliberately lock-free-only construction yields
   a counterexample schedule, not a certificate. *)
let spinner_counterexample () =
  let store, programs = spinner_harness ~checkpoint:true in
  match Progress.check_wait_free store ~programs with
  | Verdict.Refuted { reason; trace; _ } ->
    Alcotest.(check bool) "the spinner is the culprit" true
      (contains reason "process 0 does not terminate running solo");
    Alcotest.(check bool) "counterexample has a schedule" true
      (Trace.length trace > 0)
  | v -> Alcotest.failf "spinner not refuted: %a" Verdict.pp_summary v

(* The refutation's trace replays from the root, and [proc] is still
   running (a spinner) or hung (an illegal invocation) at its end. *)
let replays_to store programs trace ~proc ~status =
  match Replay.final (Config.make store programs) trace with
  | Ok c ->
    Alcotest.(check bool) "the witness ends as reported" true
      (status c.Config.procs.(proc).Config.status)
  | Error { Replay.at; reason } ->
    Alcotest.failf "witness does not replay (event %d: %s)" at reason

(* Process 0 invokes a 1sWRN twice on one index, which hangs it. *)
let reused_index_harness () =
  let store, h =
    Store.alloc Store.empty (Subc_objects.One_shot_wrn.model ~k:2)
  in
  let reuser =
    let open Program.Syntax in
    let* _ = Subc_objects.One_shot_wrn.wrn h 0 (Value.Int 1) in
    Subc_objects.One_shot_wrn.wrn h 0 (Value.Int 2)
  in
  (store, [ reuser; Subc_objects.One_shot_wrn.wrn h 1 (Value.Int 3) ])

(* The index reuse is a [Hang] refutation, not a certificate. *)
let reused_index_hangs () =
  let store, programs = reused_index_harness () in
  match Progress.check_wait_free store ~programs with
  | Verdict.Refuted { reason; trace; _ } ->
    Alcotest.(check bool) "process 0 hangs" true
      (contains reason "process 0 hangs (illegal invocation)");
    replays_to store programs trace ~proc:0 ~status:(function
      | Config.Hung -> true
      | _ -> false)
  | v -> Alcotest.failf "index reuse not refuted: %a" Verdict.pp_summary v

(* Without a checkpoint only the solo-step limit refutes the spinner. *)
let growing_spinner_hits_solo_limit () =
  let store, programs = spinner_harness ~checkpoint:false in
  match Progress.check_wait_free ~solo_limit:50 store ~programs with
  | Verdict.Refuted { reason; trace; _ } ->
    Alcotest.(check bool) "the spinner does not terminate" true
      (contains reason "process 0 does not terminate running solo");
    Alcotest.(check int) "the solo run is cut at the limit" 50
      (Trace.length trace);
    replays_to store programs trace ~proc:0 ~status:(function
      | Config.Running _ -> true
      | _ -> false)
  | v -> Alcotest.failf "spinner not refuted: %a" Verdict.pp_summary v

(* t-resilience refutes the same hang through the pipeline's terminal
   phase, with a schedule that replays to the hung process. *)
let reused_index_not_t_resilient () =
  let store, programs = reused_index_harness () in
  match Progress.check_t_resilient ~t:0 store ~programs with
  | Verdict.Refuted { reason; trace; _ } ->
    Alcotest.(check bool) "a hang is reported" true
      (contains reason "hangs a process");
    replays_to store programs trace ~proc:0 ~status:(function
      | Config.Hung -> true
      | _ -> false)
  | v -> Alcotest.failf "index reuse not refuted: %a" Verdict.pp_summary v

let alg2_t_resilient () =
  let { store; programs; _ } = Registry.alg2 ~k:3 ~crashes:0 in
  let v = Progress.check_t_resilient ~t:2 store ~programs in
  Alcotest.(check bool) "2-resilient termination proved" true
    (Verdict.is_proved v)

(* The space-time diagram renderer. *)
let diagram_smoke () =
  let config = root (Registry.alg2 ~k:3 ~crashes:0) in
  let r = Runner.run (Runner.Random 3) config in
  let rendered =
    Format.asprintf "%a" (Trace.pp_diagram ~n_procs:3) r.Runner.trace
  in
  Alcotest.(check bool) "has a header row" true
    (String.length rendered > 0 && String.sub rendered 0 2 = "P0");
  (* one row per step + header + rule *)
  let lines = String.split_on_char '\n' (String.trim rendered) in
  Alcotest.(check int) "rows" (Trace.length r.Runner.trace + 2)
    (List.length lines)

let suite =
  [
    ( "crash.safety",
      [
        test "Algorithm 2 (k=3)" (alg2_crash_safety ~k:3);
        test "Algorithm 2 (k=5)" (alg2_crash_safety ~k:5);
        test "Algorithm 6 (n=6,k=3)" (alg6_crash_safety ~n:6 ~k:3);
        test "Algorithm 3 (k=3, relaxed, IS renaming)" alg3_crash_safety;
        test "SSE object strong election" sse_object_crash_safety;
        test "Algorithm 5 linearizable with incomplete ops"
          alg5_crash_linearizability;
      ] );
    ( "crash.exhaustive",
      [
        test "Algorithm 2 (k=3) safe under every pattern, f <= 2"
          alg2_exhaustive_crash_sweep;
      ] );
    ( "crash.determinism",
      [
        test "random crashes: same seed, same trace" crash_random_deterministic;
        test "scripted crashes: deterministic, victims die"
          crash_at_deterministic;
        test "crash-only adversaries keep their traces"
          crash_only_traces_pinned;
        test "crash traces replay to the same terminal config"
          crash_trace_replays;
      ] );
    ( "crash.progress",
      [
        test "lock-free spinner: counterexample schedule"
          spinner_counterexample;
        test "1sWRN index reuse: hang refutation replays" reused_index_hangs;
        test "growing spinner: solo-limit refutation replays"
          growing_spinner_hits_solo_limit;
        test "Algorithm 2 (k=3) 2-resilient" alg2_t_resilient;
        test "1sWRN index reuse: t-resilience hang refutation replays"
          reused_index_not_t_resilient;
      ] );
    ("crash.diagram", [ test "space-time diagram renders" diagram_smoke ]);
  ]
