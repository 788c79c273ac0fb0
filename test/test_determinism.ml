(* The determinism matrix: every engine configuration must give the same
   count tuple and verdict.  Each row is one harness with its property,
   at its crash and recovery budgets, with the status the property has
   at each; each budget and reduction level is its own test case, so a
   disagreement names both.  [Helpers.agree] runs it at every level it
   admits, under every engine setting and key mode, and asserts that
   the cells and the row's checker agree (see its comment for the cells
   and the checks). *)
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
    task ~symmetry:None store
      (List.map (Subc_objects.Consensus_obj.propose c) inputs)
      ~inputs ~task:Subc_tasks.Task.(conj all_decided consensus)
  in
  {
    h with
    checker =
      (fun options ->
        Subc_check.Valence.consensus_verdict ~options (root h) ~inputs);
  }

(* A row: one test case per (crash, recovery, expected status) budget
   of harness [h f] (its property at crash budget [f]) and reduction
   level, with [~steals] and [~solo_bound] as [Helpers.agree] takes
   them.  The paper's families are the family table's instances. *)
let row ?steals ?solo_bound name h budgets =
  budgets |> List.concat_map (fun (f, r, expect) ->
      agree ?steals ?solo_bound name (h f) ~f ~r ~expect
      |> List.map (fun (level, body) ->
             test_slow (Printf.sprintf "%s at f=%d r=%d %s" name f r level) body))

let set_consensus crashes = Registry.set_consensus_object ~n:3 ~k:2 ~crashes

let suite =
  [
    ( "determinism",
      List.concat
        [
          row "alg2 k=3" (fun crashes -> Registry.alg2 ~k:3 ~crashes) ~solo_bound:1
            [ (0, 0, `Proved); (1, 0, `Proved); (2, 0, `Proved); (1, 1, `Proved) ];
          row "alg5 k=3" (fun _ -> Registry.alg5 ~k:3) ~steals:true ~solo_bound:5
            [ (0, 0, `Proved); (1, 0, `Proved); (1, 1, `Refuted) ];
          row "1swrn k=3" (fun _ -> Registry.one_shot_wrn_object ~k:3)
            [ (0, 0, `Proved); (1, 0, `Proved); (1, 1, `Proved) ];
          row "set-consensus n=3 k=2" set_consensus [ (0, 0, `Proved) ];
          row "alg3 k=2"
            (fun crashes ->
              Registry.alg3 ~flavor:Subc_core.Alg3.Relaxed_wrn
                ~renamer:Subc_core.Alg3.Rename_snapshot ~ids:[ 9; 2 ] ~crashes)
            [ (0, 0, `Proved) ];
          row "t&s n=2 r=1"
            (fun _ -> recovery_harness Cn.Test_and_set ~n:2 ~r:1)
            [ (1, 0, `Proved); (1, 1, `Refuted) ];
          row "queue n=2 r=2"
            (fun _ -> recovery_harness Cn.Queue ~n:2 ~r:2)
            [ (2, 2, `Refuted) ];
          row "cas n=2 r=1"
            (fun _ -> recovery_harness Cn.Cas ~n:2 ~r:1)
            [ (1, 0, `Proved); (1, 1, `Proved) ];
          row "cas n=3 r=1"
            (fun _ -> recovery_harness Cn.Cas ~n:3 ~r:1)
            [ (2, 1, `Proved) ];
          row "set-consensus n=3 k=2" set_consensus [ (1, 0, `Proved) ];
          row "queue n=2 r=1"
            (fun _ -> recovery_harness Cn.Queue ~n:2 ~r:1)
            [ (1, 0, `Proved); (1, 1, `Refuted) ];
          row "consensus n=2" (fun _ -> consensus_harness ()) [ (0, 0, `Proved) ];
          row "alg6 n=4 k=2 erasure"
            (fun crashes -> Registry.alg6 ~n:4 ~k:2 ~crashes)
            [ (0, 0, `Proved) ];
          row "alg4 k=2 erasure" (fun _ -> Registry.alg4 ~k:2) ~solo_bound:3
            [ (0, 0, `Proved) ];
        ] );
  ]
