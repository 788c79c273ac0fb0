(* The wait-freedom checker against a brute-force oracle: every solo
   bound it certifies must equal the one a memo-free recursion finds. *)
open Subc_sim
module Progress = Subc_check.Progress
module Registry = Subc_analysis.Registry
module Verdict = Subc_check.Verdict

(* Steps process [p] takes to terminate running alone from [config],
   maximized over object nondeterminism: a plain recursion over every
   solo successor, with no memo.  Only for wait-free instances, so a
   hang or a run past [limit] steps fails the test. *)
let rec solo_steps ~limit p config =
  if limit = 0 then Alcotest.failf "process %d runs solo too long" p;
  List.fold_left
    (fun acc (c', _, _) ->
      match c'.Config.procs.(p).Config.status with
      | Config.Running _ | Config.Recovering _ ->
        max acc (1 + solo_steps ~limit:(limit - 1) p c')
      | Config.Terminated _ | Config.Crashed -> max acc 1
      | Config.Hung -> Alcotest.failf "process %d hangs running solo" p)
    0 (Step.step_slots config p)

(* The largest solo distance over every reachable configuration and
   running process, and the number of reachable configurations. *)
let oracle options config =
  let bound = ref 0 and configs = ref 0 in
  let stats =
    Search.iter_reachable ~options:(Search.with_jobs 1 options) config
      ~f:(fun c _ ->
        incr configs;
        List.iter
          (fun p -> bound := max !bound (solo_steps ~limit:1000 p c))
          (Config.running c))
  in
  Alcotest.(check bool) "the oracle's search is exhaustive" false
    stats.Explore.limited;
  (!bound, !configs)

let metric v name =
  int_of_float (List.assoc name (Verdict.stats v).Verdict.metrics)

(* [check_wait_free]'s solo bound and configuration count equal the
   oracle's at jobs 1 and 4, and with [~paranoid] (every memo key
   checked against a from-scratch fold) on the small spaces, where the
   paranoid engine's exact keys stay cheap.  The grid renaming and
   Algorithm 5 at k=4 spaces are past the engine's spawn threshold, so
   at jobs 4 helper domains visit too, each with its own memos and
   slot-mix cache. *)
let agrees ~crashes ~paranoid_cells store programs () =
  let options = Search.(with_max_crashes crashes default) in
  let bound, configs = oracle options (Config.make store programs) in
  List.iter
    (fun (jobs, paranoid) ->
      let v =
        Progress.check_wait_free
          ~options:Search.(options |> with_jobs jobs |> with_paranoid paranoid)
          store ~programs
      in
      let cell = Printf.sprintf "jobs %d paranoid %b" jobs paranoid in
      Alcotest.(check bool) (cell ^ " proved") true (Verdict.is_proved v);
      Alcotest.(check int) (cell ^ " solo bound") bound (metric v "solo_bound");
      Alcotest.(check int) (cell ^ " configs") configs (metric v "configs"))
    ((1, false) :: (4, false)
    :: (if paranoid_cells then [ (1, true); (4, true) ] else []))

let harness ~crashes ~paranoid_cells (h : Subc_check.Harness.t) =
  agrees ~crashes ~paranoid_cells h.Subc_check.Harness.store
    h.Subc_check.Harness.programs

let grid_renaming ~k ~ids =
  let store, programs = Test_renaming.grid_setup ~k ~ids in
  agrees ~crashes:0 ~paranoid_cells:false store programs

let suite =
  [
    ( "progress.oracle",
      [
        Helpers.test "Algorithm 2 (k=3, f=2)"
          (harness ~crashes:2 ~paranoid_cells:true (Registry.alg2 ~k:3 ~crashes:2));
        Helpers.test "Algorithm 5 (k=3, f=1)"
          (harness ~crashes:1 ~paranoid_cells:true (Registry.alg5 ~k:3));
        Helpers.test "grid renaming (k=3)" (grid_renaming ~k:3 ~ids:[ 1; 2; 3 ]);
        Helpers.test "Algorithm 5 (k=4)"
          (harness ~crashes:0 ~paranoid_cells:false (Registry.alg5 ~k:4));
      ] );
  ]
