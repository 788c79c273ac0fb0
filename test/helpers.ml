(* Shared test utilities. *)
open Subc_sim
module Verdict = Subc_check.Verdict

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

(* CI runs the whole suite once per visited-table backing:
   SUBC_TEST_VISITED names it (default [heap]; [spill] maps the tables
   from the temporary directory, which TMPDIR chooses), and every
   parallel search that does not pin its own backing passes
   [test_visited] explicitly. *)
let test_visited =
  match Sys.getenv_opt "SUBC_TEST_VISITED" with
  | None | Some "heap" -> Parallel.Heap
  | Some "spill" -> Parallel.Spill (Filename.get_temp_dir_name ())
  | Some other ->
    invalid_arg (Printf.sprintf "SUBC_TEST_VISITED: unknown backing %S" other)

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
