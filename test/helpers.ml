(* Shared test utilities. *)
open Subc_sim
module Verdict = Subc_check.Verdict

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

(* The engine called directly, for its own test knob [?seq_threshold]:
   every search knob comes from [options]. *)
let parallel_run ?seq_threshold
    ?(on_terminal = fun _ _ -> ()) ?(on_visit = fun _ _ _ -> ())
    (o : Search.options) config =
  Parallel.run ~visited:o.visited ~max_states:o.max_states
    ~max_depth:o.max_depth ~max_crashes:o.max_crashes
    ~max_recoveries:o.max_recoveries ?deadline:o.deadline
    ?expected_states:o.expected_states
    ~reduction:o.reduction ~paranoid:o.paranoid ?seq_threshold
    ~find_cycle:false ~jobs:o.jobs ~on_terminal ~on_visit "test" config
  |> fst

(* Distinct proposal values for k processes: 100, 101, … *)
let inputs k = List.init k (fun i -> Value.Int (100 + i))

let explore_stats_exn (v : Verdict.t) =
  match (Verdict.stats v).Verdict.explore with
  | Some e -> e
  | None -> Alcotest.fail "verdict carries no exploration stats"

let options_of ?max_states () =
  match max_states with
  | None -> Subc_sim.Search.default
  | Some n -> Subc_sim.Search.(with_max_states n default)

let check_exhaustive ?max_states store ~programs ~inputs ~task =
  match
    Subc_check.Task_check.check
      ~options:(options_of ?max_states ())
      store ~programs ~inputs ~task
  with
  | Verdict.Proved _ as v -> explore_stats_exn v
  | Verdict.Limited _ -> Alcotest.fail "exhaustive check hit the state limit"
  | Verdict.Refuted { reason; trace; _ } ->
    Alcotest.failf "task %s violated: %s@.%a" task.Subc_tasks.Task.name reason
      Trace.pp trace

(* The historical helper semantics (no infinite schedule, no hangs) is
   0-resilient termination; the per-process solo-bound certificate is
   [Subc_check.Progress.check_wait_free], exercised in test_reduction. *)
let check_wait_free ?max_states store ~programs =
  match
    Subc_check.Progress.check_t_resilient
      ~options:(options_of ?max_states ())
      ~t:0 store ~programs
  with
  | Verdict.Proved _ as v -> explore_stats_exn v
  | Verdict.Limited _ -> Alcotest.fail "wait-freedom check hit the state limit"
  | Verdict.Refuted { reason; _ } ->
    Alcotest.failf "wait-freedom violated: %s" reason

let expect_violation ?max_states store ~programs ~inputs ~task =
  match
    Subc_check.Task_check.check
      ~options:(options_of ?max_states ())
      store ~programs ~inputs ~task
  with
  | Verdict.Proved _ | Verdict.Limited _ ->
    Alcotest.failf "expected a violation of %s, found none"
      task.Subc_tasks.Task.name
  | Verdict.Refuted { reason; trace; _ } -> (reason, trace)

(* Run under a fixed schedule (extended round-robin when exhausted). *)
let run_fixed store ~programs ~schedule =
  let config = Config.make store programs in
  Runner.run (Runner.Fixed schedule) config

let decision_exn final i =
  match Config.decision final i with
  | Some v -> v
  | None -> Alcotest.failf "process %d did not decide" i

let test name f = Alcotest.test_case name `Quick f
let test_slow name f = Alcotest.test_case name `Slow f

let seeds n = List.init n (fun i -> 7919 * (i + 1))

(* The configuration a refutation's witness replays to from [config]:
   a terminal for a violation, a configuration with a running process for
   a divergence lasso.  Fails the test unless [v] is refuted and its
   witness replays. *)
let refutation_end config (v : Verdict.t) =
  match v with
  | Verdict.Refuted { trace; _ } -> (
    match Replay.final config trace with
    | Ok c -> c
    | Error { Replay.at; reason } ->
      Alcotest.failf "witness does not replay (event %d: %s)" at reason)
  | v -> Alcotest.failf "expected Refuted, got %a" Verdict.pp_summary v

(* [Subc_check.Refinement.check_refines] must prove [impl] refines
   [spec], both reaching some outcome. *)
let expect_refines ~impl ~spec =
  match Subc_check.Refinement.check_refines () ~impl ~spec with
  | Verdict.Proved _ as v ->
    let metric name =
      int_of_float (List.assoc name (Verdict.stats v).Verdict.metrics)
    in
    Alcotest.(check bool) "spec reachable outcomes nonempty" true
      (metric "spec_outcomes" > 0);
    Alcotest.(check bool) "impl reachable outcomes nonempty" true
      (metric "impl_outcomes" > 0)
  | v -> Alcotest.failf "refinement not proved: %a" Verdict.pp v

(* ---------------------------------------------------------------- *)
(* Harnesses: every family the suites share, built here once.         *)

(* A store, its programs, the process symmetry the family declares (if
   any) and the (crash, recovery) budgets the determinism matrix runs it
   at. *)
type harness = {
  store : Store.t;
  programs : Value.t Program.t list;
  symmetry : Symmetry.t option;
  budgets : (int * int) list;
}

let root h = Config.make h.store h.programs

(* The declared symmetry of a harness that has one. *)
let sym h =
  match h.symmetry with
  | Some s -> s
  | None -> invalid_arg "harness declares no symmetry"

(* Algorithm 2, one-shot: k processes proposing [inputs k]. *)
let alg2_harness ?(budgets = [ (0, 0) ]) k =
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  {
    store;
    programs = List.mapi (fun i v -> Subc_core.Alg2.propose t ~i v) (inputs k);
    symmetry = Some (Subc_core.Alg2.symmetry t ~input_base:100 ());
    budgets;
  }

(* Algorithm 5: process i calls WRN(i, 100 + i). *)
let alg5_harness ?(budgets = [ (0, 0) ]) k =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k () in
  {
    store;
    programs =
      List.init k (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)));
    symmetry = Some (Subc_core.Alg5.symmetry t ~input_base:100 ());
    budgets;
  }

(* The one-shot WRN_k object itself, used once per index. *)
let wrn_harness ?(budgets = [ (0, 0) ]) k =
  let store, h = Store.alloc Store.empty (Subc_objects.One_shot_wrn.model ~k) in
  {
    store;
    programs =
      List.init k (fun i ->
          Subc_objects.One_shot_wrn.wrn h i (Value.Int (100 + i)));
    symmetry = Some (Symmetry.standard ~n:k ~input_base:100 `Rotations);
    budgets;
  }

(* An (n, k)-set-consensus object: n processes propose [inputs n]. *)
let sc_harness ?(budgets = [ (0, 0) ]) ~n ~k () =
  let store, h =
    Store.alloc Store.empty (Subc_objects.Set_consensus_obj.model ~n ~k)
  in
  {
    store;
    programs =
      List.init n (fun i ->
          Subc_objects.Set_consensus_obj.propose h (Value.Int (100 + i)));
    symmetry = Some (Symmetry.standard ~n ~input_base:100 `Full);
    budgets;
  }

(* Algorithm 3 at k=2 (relaxed WRN, snapshot renaming) for identifiers
   9 and 2, with its inputs and the 1-set consensus task it solves.
   Identifier-asymmetric: it declares no symmetry. *)
let alg3_harness () =
  let k = 2 and ids = [ 9; 2 ] in
  let store, t =
    Subc_core.Alg3.alloc Store.empty ~k ~flavor:Subc_core.Alg3.Relaxed_wrn
      ~renamer:Subc_core.Alg3.Rename_snapshot ()
  in
  let programs =
    List.mapi
      (fun slot id ->
        Subc_core.Alg3.propose t ~slot ~id (Value.Int (1000 + id)))
      ids
  in
  ( { store; programs; symmetry = None; budgets = [ (0, 0) ] },
    List.map (fun id -> Value.Int (1000 + id)) ids,
    Subc_tasks.Task.set_consensus (k - 1) )

(* A recoverable-consensus family's protocol for n processes and r
   recoveries, by default at crash budget max(n-1, r) and recovery
   budget r. *)
let recovery_harness ?budgets family ~n ~r =
  let store, programs =
    Subc_check.Recoverable.protocol Store.empty family ~n ~max_recoveries:r
  in
  let budgets = Option.value budgets ~default:[ (max (n - 1) r, r) ] in
  { store; programs; symmetry = None; budgets }

(* ---------------------------------------------------------------- *)
(* The determinism matrix.                                            *)

(* The deterministic slice of a search's statistics: every field the
   engine promises at any jobs, backing and key mode. *)
let same_counts name (a : Explore.stats) (b : Explore.stats) =
  let int field get =
    Alcotest.(check int) (name ^ " " ^ field) (get a) (get b)
  in
  int "states" (fun s -> s.Explore.states);
  int "transitions" (fun s -> s.Explore.transitions);
  int "terminals" (fun s -> s.Explore.terminals);
  int "hung" (fun s -> s.Explore.hung_terminals);
  int "crashed" (fun s -> s.Explore.crashed_terminals);
  int "recovered" (fun s -> s.Explore.recovered_terminals);
  int "dedup" (fun s -> s.Explore.dedup_hits);
  int "source_skips" (fun s -> s.Explore.source_skips);
  Alcotest.(check bool) (name ^ " limited") a.Explore.limited b.Explore.limited

(* [in_temp_dir f] is a test body that runs [f dir] with [dir] a fresh
   directory under TMPDIR, removed, with anything still in it, when the
   test ends.  A spill table unlinks each file as soon as it is mapped,
   so the directory normally stays empty. *)
let in_temp_dir f () =
  let dir = Filename.temp_dir "subc-test-" "" in
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove dir)
    (fun () -> f dir)

(* A counter or gauge of the process-wide metrics registry, 0 if unset. *)
let metric name = Option.value ~default:0.0 (Subc_obs.Metrics.find name)

(* An [on_visit] for a search that spawns its helpers at the root: it
   holds the calling domain at its second visit until some helper has
   visited a node, or for 20 ms.  By then the caller has handed the
   root's first child to the idle helpers, so a steal does not depend on
   the helpers being scheduled before the caller finishes a small space.
   (Under symmetry the stolen child may be a duplicate of the caller's,
   which no helper visits; the wait then runs out.) *)
let handover () =
  let caller = Domain.self () and seen = ref 0 and helped = Atomic.make false in
  fun _ _ _ ->
    if Domain.self () <> caller then Atomic.set helped true
    else begin
      incr seen;
      if !seen = 2 then begin
        let until = Unix.gettimeofday () +. 0.02 in
        while (not (Atomic.get helped)) && Unix.gettimeofday () < until do
          Unix.sleepf 1e-4
        done
      end
    end

(* [agree name h] runs every engine configuration on [h] and fails unless
   they agree.  For each budget of [h] and each reduction level (none
   and source, plus sym and full when [h] declares a symmetry), the
   cells are every engine setting — jobs 1, jobs 4 through [Search] at
   the default spawn threshold, jobs 4 spawning at the root — crossed
   with three visited tables: the heap, the heap under [~paranoid], and
   a [Spill] directory.  [~paranoid] claims in the exact table whatever
   [visited] says, so it runs on the heap only.

   Every cell must report the first (jobs-1 heap) cell's [same_counts],
   never be limited and keep a live frontier gauge; jobs-1 cells also
   agree on [max_depth].  The collision bound is 0 under [~paranoid] and
   otherwise the 124-bit birthday bound, below 1e-6.  Spill cells map
   their table and leave the directory empty.  Unreduced fingerprinted
   cells patch once per transition; paranoid cells with symmetry off
   re-fold every state (under symmetry no fingerprint is carried).  With
   [~steals] every root-spawning cell records a steal.  A budget with
   recoveries reaches a recovered terminal.  Against the unreduced
   search, source sets keep the terminal, hung and crashed counts, and
   both source sets and the full reduction explore fewer transitions
   whenever they skip one. *)
let agree ?(steals = false) name h =
  let config = root h in
  let engines = [ ("j1", 1, None); ("j4", 4, None); ("j4 eager", 4, Some 0) ] in
  let counters =
    [ "fp.patches"; "fp.refolds"; "parallel.steals"; "visited.spill_bytes" ]
  in
  let level dir label ~f ~r (reduction : Explore.reduction) =
    let tables =
      [
        ("heap", Parallel.Heap, false);
        ("paranoid", Parallel.Heap, true);
        ("spill", Parallel.Spill dir, false);
      ]
    in
    let sym_off = reduction.symmetry = None in
    let base = ref None in
    List.iter
      (fun (elabel, jobs, seq_threshold) ->
        List.iter
          (fun (tlabel, visited, paranoid) ->
            let cell = Printf.sprintf "%s %s %s %s" name label elabel tlabel in
            let options =
              Search.(
                default |> with_max_crashes f |> with_max_recoveries r
                |> with_reduction reduction |> with_paranoid paranoid
                |> with_visited visited |> with_jobs jobs)
            in
            let before = List.map (fun n -> (n, metric n)) counters in
            let s =
              match seq_threshold with
              | None -> Search.iter_terminals ~options config ~f:(fun _ _ -> ())
              | Some _ ->
                let on_visit =
                  if steals then handover () else fun _ _ _ -> ()
                in
                parallel_run ?seq_threshold ~on_visit options config
            in
            let moved n = metric n -. List.assoc n before in
            let b = match !base with Some b -> b | None -> s in
            base := Some b;
            same_counts cell b s;
            if jobs = 1 then
              Alcotest.(check int)
                (cell ^ " max_depth") b.Explore.max_depth s.Explore.max_depth;
            Alcotest.(check bool)
              (cell ^ " never limited") false s.Explore.limited;
            Alcotest.(check bool)
              (cell ^ " frontier gauge") true (s.Explore.frontier_bytes > 0);
            Alcotest.(check (float 0.0))
              (cell ^ " collision bound")
              (if paranoid then 0.0
               else Explore.collision_bound ~bits:124 ~states:s.Explore.states)
              s.Explore.collision_bound;
            if not paranoid then
              Alcotest.(check bool)
                (cell ^ " bound below 1e-6") true
                (s.Explore.collision_bound > 0.0
                && s.Explore.collision_bound < 1e-6);
            if visited <> Parallel.Heap then begin
              Alcotest.(check bool)
                (cell ^ " maps its table") true
                (moved "visited.spill_bytes" > 0.0);
              Alcotest.(check (array string))
                (cell ^ " leaves no file") [||] (Sys.readdir dir)
            end;
            if paranoid && sym_off then
              Alcotest.(check bool)
                (cell ^ " re-folds every state") true
                (moved "fp.refolds" >= float_of_int s.Explore.states);
            if (not paranoid) && sym_off && not reduction.source_sets then
              Alcotest.(check (float 0.0))
                (cell ^ " one patch per transition")
                (float_of_int s.Explore.transitions)
                (moved "fp.patches");
            if steals && seq_threshold <> None then
              Alcotest.(check bool)
                (cell ^ " steals") true
                (moved "parallel.steals" > 0.0))
          tables)
      engines;
    Option.get !base
  in
  let budget dir (f, r) =
    let label l = Printf.sprintf "f=%d r=%d %s" f r l in
    let none = level dir (label "none") ~f ~r Explore.no_reduction in
    let source = level dir (label "source") ~f ~r Explore.source_only in
    let vs field get =
      Alcotest.(check int)
        (Printf.sprintf "%s %s source vs none %s" name (label "") field)
        (get none) (get source)
    in
    vs "terminals" (fun s -> s.Explore.terminals);
    vs "hung" (fun s -> s.Explore.hung_terminals);
    vs "crashed" (fun s -> s.Explore.crashed_terminals);
    if r > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "%s %s some terminal recovered" name (label ""))
        true
        (none.Explore.recovered_terminals > 0);
    let prunes lbl (s : Explore.stats) =
      if s.Explore.source_skips > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%s %s %s prunes transitions" name (label "") lbl)
          true
          (s.Explore.transitions < none.Explore.transitions)
    in
    prunes "source" source;
    Option.iter
      (fun sym ->
        ignore (level dir (label "sym") ~f ~r (Explore.with_symmetry sym));
        prunes "full"
          (level dir (label "full") ~f ~r (Explore.full_reduction sym)))
      h.symmetry
  in
  in_temp_dir (fun dir -> List.iter (budget dir) h.budgets) ()
