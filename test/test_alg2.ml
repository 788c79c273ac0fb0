(* Algorithm 2: (k−1)-set consensus for k processes from one WRN_k.
   Experiment E1 — Claims 3-8, Corollaries 9-10. *)
open Subc_sim
open Helpers
module Alg2 = Subc_core.Alg2
module Task = Subc_tasks.Task

let setup ~k ~one_shot =
  let store, t = Alg2.alloc Store.empty ~k ~one_shot in
  let inputs = inputs k in
  let programs =
    List.mapi (fun i v -> Alg2.propose t ~i v) inputs
  in
  (store, programs, inputs)

let exhaustive_case ~k ~one_shot () =
  let store, programs, inputs = setup ~k ~one_shot in
  let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
  let stats = check_exhaustive store ~programs ~inputs ~task in
  Alcotest.(check bool) "visited some states" true (stats.Explore.states > k)

let wait_free_case ~k ~one_shot () =
  let store, programs, _ = setup ~k ~one_shot in
  ignore (check_wait_free store ~programs)

(* Claim 4: the first process to perform WRN decides its own value. *)
let first_decides_own ~k () =
  let store, programs, inputs = setup ~k ~one_shot:false in
  List.iteri
    (fun first input ->
      let order = first :: List.filter (fun i -> i <> first) (List.init k Fun.id) in
      let config = Config.make store programs in
      let r = Runner.run (Runner.Priority order) config in
      Alcotest.check value "first decides own input" input
        (decision_exn r.Runner.final first))
    inputs

(* Claim 5: the last process to perform WRN decides its successor's value. *)
let last_decides_successor ~k () =
  let store, programs, inputs = setup ~k ~one_shot:false in
  List.iteri
    (fun last _ ->
      let order = List.filter (fun i -> i <> last) (List.init k Fun.id) @ [ last ] in
      let r = run_fixed store ~programs ~schedule:order in
      Alcotest.check value "last decides successor's input"
        (List.nth inputs ((last + 1) mod k))
        (decision_exn r.Runner.final last))
    inputs

(* Corollary 8 is tight: some schedule produces exactly k−1 distinct values. *)
let bound_is_tight ~k () =
  let store, programs, _inputs = setup ~k ~one_shot:false in
  let config = Config.make store programs in
  let best = ref 0 in
  let _stats =
    Search.iter_terminals config ~f:(fun c _ ->
        best := max !best (List.length (Task.distinct (Config.decisions c))))
  in
  Alcotest.(check int) "max distinct decisions" (k - 1) !best

(* A solo process decides its own value (wait-freedom, Claim 3). *)
let solo_decides_own ~k () =
  let store, t = Alg2.alloc Store.empty ~k ~one_shot:true in
  let program = Alg2.propose t ~i:1 (Value.Int 7) in
  let config = Config.make store [ program ] in
  let r = Runner.run Runner.Round_robin config in
  Alcotest.check value "solo decision" (Value.Int 7)
    (decision_exn r.Runner.final 0)

(* Duplicate proposals: validity still holds, distinct-count only shrinks. *)
let duplicate_proposals ~k () =
  let store, t = Alg2.alloc Store.empty ~k ~one_shot:true in
  let inputs = List.init k (fun i -> Value.Int (100 + (i mod 2))) in
  let programs = List.mapi (fun i v -> Alg2.propose t ~i v) inputs in
  let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
  ignore (check_exhaustive store ~programs ~inputs ~task)

let suite =
  [
    ( "alg2.set-consensus",
      [
        test "k=3 multi-shot exhaustive" (exhaustive_case ~k:3 ~one_shot:false);
        test "k=4 multi-shot exhaustive" (exhaustive_case ~k:4 ~one_shot:false);
        test "k=3 wait-free" (wait_free_case ~k:3 ~one_shot:true);
        test "k=4 wait-free" (wait_free_case ~k:4 ~one_shot:false);
      ] );
    ( "alg2.claims",
      [
        test "claim 4: first decides own (k=3)" (first_decides_own ~k:3);
        test "claim 4: first decides own (k=4)" (first_decides_own ~k:4);
        test "claim 5: last decides successor (k=3)" (last_decides_successor ~k:3);
        test "claim 5: last decides successor (k=4)" (last_decides_successor ~k:4);
        test "corollary 8 bound is tight (k=3)" (bound_is_tight ~k:3);
        test "corollary 8 bound is tight (k=4)" (bound_is_tight ~k:4);
        test "solo run decides own (k=3)" (solo_decides_own ~k:3);
        test "duplicate proposals stay valid (k=3)" (duplicate_proposals ~k:3);
        test "duplicate proposals stay valid (k=4)" (duplicate_proposals ~k:4);
      ] );
  ]
