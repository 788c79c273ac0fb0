(* The determinism matrix: every engine configuration must give the same
   count tuple and verdict.  Each row is one harness with its property,
   at its crash and recovery budgets, with the status the property has
   at each; each budget and reduction level is its own test case, so a
   disagreement names both.  [Helpers.agree] runs it at every level it
   admits, under every engine setting, visited-table backing and key
   mode, and asserts that the cells and the row's checker agree (see its
   comment for the cells and the checks). *)
open Subc_sim
open Helpers
module Cn = Subc_classic.Consensus_number

(* The consensus object, two processes proposing 0 and 1, proved by
   [Valence.consensus_verdict]: consensus, every process deciding, and
   every schedule terminating. *)
let consensus_harness () =
  let store, c = Store.alloc Store.empty Subc_objects.Consensus_obj.model in
  let inputs = [ Value.Int 0; Value.Int 1 ] in
  let h =
    task_harness store
      (List.map (Subc_objects.Consensus_obj.propose c) inputs)
      ~inputs ~task:Subc_tasks.Task.(conj all_decided consensus)
  in
  {
    h with
    checker =
      (fun options ->
        Subc_check.Valence.consensus_verdict ~options (root h) ~inputs);
  }

(* Algorithm 6 at n=4 k=2, under terminal-store erasure alone: its
   agreement bound. *)
let alg6_harness () =
  let n = 4 and k = 2 in
  let store, t = Subc_core.Alg6.alloc Store.empty ~n ~k ~one_shot:true in
  task_harness store
    (List.mapi (fun i v -> Subc_core.Alg6.propose t ~i v) (inputs n))
    ~symmetry:(Symmetry.erasure_only ~n) ~inputs:(inputs n)
    ~task:
      (Subc_tasks.Task.set_consensus (Subc_core.Alg6.agreement_bound ~n ~k))

(* Algorithm 4 (relaxed WRN from 1sWRN and counters) at k=2, under
   erasure: no task of its own; its row checks wait-freedom. *)
let alg4_harness () =
  let k = 2 in
  let store, t = Subc_core.Alg4.alloc Store.empty ~k in
  terminating_harness store
    (List.init k (fun i -> Subc_core.Alg4.rlx_wrn t ~i (Value.Int (100 + i))))
    ~symmetry:(Symmetry.erasure_only ~n:k)

(* A row: one test case per (crash, recovery, expected status) budget
   of harness [h] and reduction level, with [~steals] and [~solo_bound]
   as [Helpers.agree] takes them. *)
let row ?steals ?solo_bound name h budgets =
  budgets |> List.concat_map (fun (f, r, expect) ->
      agree ?steals ?solo_bound name h ~f ~r ~expect
      |> List.map (fun (level, body) ->
             test_slow (Printf.sprintf "%s at f=%d r=%d %s" name f r level) body))

let suite =
  [
    ( "determinism",
      List.concat
        [
          row "alg2 k=3" (alg2_harness 3) ~solo_bound:1
            [ (0, 0, `Proved); (1, 0, `Proved); (2, 0, `Proved); (1, 1, `Proved) ];
          row "alg5 k=3" (alg5_harness 3) ~steals:true ~solo_bound:5
            [ (0, 0, `Proved); (1, 0, `Proved); (1, 1, `Refuted) ];
          row "1swrn k=3" (wrn_harness 3)
            [ (0, 0, `Proved); (1, 0, `Proved); (1, 1, `Proved) ];
          row "set-consensus n=3 k=2" (sc_harness ~n:3 ~k:2 ())
            [ (0, 0, `Proved) ];
          row "alg3 k=2" (alg3_harness ()) [ (0, 0, `Proved) ];
          row "t&s n=2 r=1"
            (recovery_harness Cn.Test_and_set ~n:2 ~r:1)
            [ (1, 0, `Proved); (1, 1, `Refuted) ];
          row "queue n=2 r=2"
            (recovery_harness Cn.Queue ~n:2 ~r:2)
            [ (2, 2, `Refuted) ];
          row "cas n=2 r=1"
            (recovery_harness Cn.Cas ~n:2 ~r:1)
            [ (1, 0, `Proved); (1, 1, `Proved) ];
          row "cas n=3 r=1" (recovery_harness Cn.Cas ~n:3 ~r:1) [ (2, 1, `Proved) ];
          row "set-consensus n=3 k=2" (sc_harness ~n:3 ~k:2 ())
            [ (1, 0, `Proved) ];
          row "queue n=2 r=1"
            (recovery_harness Cn.Queue ~n:2 ~r:1)
            [ (1, 0, `Proved); (1, 1, `Refuted) ];
          row "consensus n=2" (consensus_harness ()) [ (0, 0, `Proved) ];
          row "alg6 n=4 k=2 erasure" (alg6_harness ()) [ (0, 0, `Proved) ];
          row "alg4 k=2 erasure" (alg4_harness ()) ~solo_bound:3
            [ (0, 0, `Proved) ];
        ] );
  ]
