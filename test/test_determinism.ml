(* The determinism matrix: every engine configuration must give the same
   count tuple.  Each row is one harness at its crash and recovery
   budgets, and each budget is its own test case, so a disagreement names
   the budget; [Helpers.agree] runs it at every reduction level it admits,
   under every engine setting, visited-table backing and key mode, and
   asserts the cells agree (see its comment for the cells and the
   checks). *)
open Helpers
module R = Subc_check.Recoverable

(* Row: name, harness, and whether its root-spawning cells must steal. *)
let rows =
  [
    ("alg2 k=3", alg2_harness ~budgets:[ (0, 0); (1, 0); (2, 0); (1, 1) ] 3, false);
    ("alg5 k=3", alg5_harness ~budgets:[ (0, 0); (1, 0); (1, 1) ] 3, true);
    ("1swrn k=3", wrn_harness ~budgets:[ (0, 0); (1, 0); (1, 1) ] 3, false);
    ("set-consensus n=3 k=2", sc_harness ~n:3 ~k:2 (), false);
    ( "alg3 k=2",
      (let h, _, _ = alg3_harness () in
       h),
      false );
    ( "t&s n=2 r=1",
      recovery_harness ~budgets:[ (1, 0); (1, 1) ] R.Test_and_set ~n:2 ~r:1,
      false );
    ("queue n=2 r=2", recovery_harness R.Queue ~n:2 ~r:2, false);
    ( "cas n=2 r=1",
      recovery_harness ~budgets:[ (1, 0); (1, 1) ] R.Cas ~n:2 ~r:1,
      false );
    ("cas n=3 r=1", recovery_harness R.Cas ~n:3 ~r:1, false);
  ]

let suite =
  [
    ( "determinism",
      List.concat_map
        (fun (name, h, steals) ->
          List.map
            (fun (f, r) ->
              test_slow (Printf.sprintf "%s at f=%d r=%d" name f r) (fun () ->
                  agree ~steals name { h with budgets = [ (f, r) ] }))
            h.budgets)
        rows );
  ]
