(* Algorithm 4: relaxed WRN from 1sWRN + counters (experiment E4,
   Claims 19-21). *)
open Subc_sim
open Helpers
module Alg4 = Subc_core.Alg4

let setup ~k = Alg4.alloc Store.empty ~k

(* Corollary 20: the one-shot object is never used illegally — no reachable
   execution hangs, whatever the index pattern. *)
let never_hangs ~k ~indices () =
  let store, t = setup ~k in
  let programs =
    List.mapi (fun p i -> Alg4.rlx_wrn t ~i (Value.Int (100 + p))) indices
  in
  ignore (check_wait_free store ~programs)

(* Claim 21: with k distinct indices every caller reaches the 1sWRN, so the
   relaxed object is exactly a WRN_k — compare outcome sets against the
   primitive. *)
let distinct_indices_behave_like_wrn ~k () =
  let outcomes store programs =
    let config = Config.make store programs in
    let acc = ref [] in
    let stats =
      Search.iter_terminals config ~f:(fun final _ ->
          acc := Config.decisions final :: !acc)
    in
    Alcotest.(check bool) "exhaustive" false stats.Explore.limited;
    List.sort_uniq compare !acc
  in
  let store_r, t = setup ~k in
  let relaxed =
    outcomes store_r
      (List.init k (fun i -> Alg4.rlx_wrn t ~i (Value.Int (100 + i))))
  in
  let store_w, w = Store.alloc Store.empty (Subc_objects.Wrn.model ~k) in
  let plain =
    outcomes store_w
      (List.init k (fun i -> Subc_objects.Wrn.wrn w i (Value.Int (100 + i))))
  in
  Alcotest.(check bool) "same outcome sets" true (relaxed = plain)

(* Claim 19: under index collisions at most one caller passes the guard;
   colliding calls may all give up, but none hangs and any non-⊥ result is
   an announced value. *)
let collisions_give_up_safely ~k () =
  let store, t = setup ~k in
  let inputs = [ Value.Int 100; Value.Int 101; Value.Int 102 ] in
  let programs =
    [
      Alg4.rlx_wrn t ~i:0 (Value.Int 100);
      Alg4.rlx_wrn t ~i:0 (Value.Int 101);
      Alg4.rlx_wrn t ~i:1 (Value.Int 102);
    ]
  in
  let config = Config.make store programs in
  let result =
    Search.check_terminals config ~ok:(fun final ->
        (not (Config.any_hung final))
        && List.for_all
             (fun v -> Value.is_bot v || List.exists (Value.equal v) inputs)
             (Config.decisions final))
  in
  match result with
  | Ok stats -> Alcotest.(check bool) "exhaustive" false stats.Explore.limited
  | Error (_, trace, _) -> Alcotest.failf "unsafe:@.%a" Trace.pp trace

(* A lone colliding pair: both may get ⊥, demonstrating the relaxation the
   paper warns about (the opposite of regular WRN behavior). *)
let both_bot_reachable () =
  let store, t = setup ~k:3 in
  let programs =
    [ Alg4.rlx_wrn t ~i:0 (Value.Int 1); Alg4.rlx_wrn t ~i:0 (Value.Int 2) ]
  in
  let config = Config.make store programs in
  let found =
    Search.check_terminals config ~ok:(fun final ->
        not (Config.decisions final = [ Value.Bot; Value.Bot ]))
  in
  Alcotest.(check bool) "both give up in some schedule" true
    (Result.is_error found)

(* Solo caller always reaches the 1sWRN and reads ⊥. *)
let solo_returns_bot () =
  let store, t = setup ~k:3 in
  let config = Config.make store [ Alg4.rlx_wrn t ~i:2 (Value.Int 9) ] in
  let r = Runner.run Runner.Round_robin config in
  Alcotest.check value "⊥" Value.Bot (decision_exn r.Runner.final 0)

(* Sequential distinct-index calls read their successor like real WRN. *)
let sequential_chain () =
  let store, t = setup ~k:3 in
  let programs =
    [ Alg4.rlx_wrn t ~i:1 (Value.Int 11); Alg4.rlx_wrn t ~i:0 (Value.Int 10) ]
  in
  let r = run_fixed store ~programs ~schedule:List.(concat [ init 9 (fun _ -> 0); init 9 (fun _ -> 1) ]) in
  Alcotest.check value "second reads first" (Value.Int 11)
    (decision_exn r.Runner.final 1)

let suite =
  [
    ( "alg4.relaxed-wrn",
      [
        test "never hangs: distinct indices (k=3)"
          (never_hangs ~k:3 ~indices:[ 0; 1; 2 ]);
        test "never hangs: full collision (k=3)"
          (never_hangs ~k:3 ~indices:[ 0; 0; 0 ]);
        test "never hangs: partial collision (k=3)"
          (never_hangs ~k:3 ~indices:[ 0; 0; 1 ]);
        test "claim 21: distinct indices = plain WRN (k=3)"
          (distinct_indices_behave_like_wrn ~k:3);
        test "claim 19: collisions give up safely (k=3)"
          (collisions_give_up_safely ~k:3);
        test "collision can return ⊥ to both" both_bot_reachable;
        test "solo caller reads ⊥" solo_returns_bot;
        test "sequential chain reads successor" sequential_chain;
      ] );
  ]
