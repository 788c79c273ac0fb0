(* Algorithm 5: linearizable 1sWRN_k from strong set election (experiment
   E5, Claims 22-24, Corollary 37). *)
open Subc_sim
open Helpers
module Alg5 = Subc_core.Alg5
module Lin = Subc_check.Linearizability
module Task = Subc_tasks.Task

let harness ~k ~participants ~register_snapshots =
  let store, t = Alg5.alloc Store.empty ~k ~register_snapshots () in
  let programs =
    List.map (fun i -> Alg5.wrn t ~i (Value.Int (100 + i))) participants
  in
  (store, programs)

let ops participants i =
  let idx = List.nth participants i in
  Op.make "wrn" [ Value.Int idx; Value.Int (100 + idx) ]

(* Corollary 37: every reachable execution has a linearization against the
   1sWRN_k sequential specification. *)
let linearizable ~k ~participants ?(register_snapshots = false)
    ?(max_states = 2_000_000) () =
  let store, programs = harness ~k ~participants ~register_snapshots in
  let spec = Subc_objects.One_shot_wrn.model ~k in
  let config = Config.make store programs in
  let checked = ref 0 in
  let stats =
    Search.iter_terminals
      ~options:Search.(default |> with_max_states max_states)
      config ~f:(fun final trace ->
        incr checked;
        let history = Lin.history ~ops:(ops participants) final trace in
        match Lin.check ~spec history with
        | Some _ -> ()
        | None ->
          Alcotest.failf "non-linearizable:@.%a@.%a" Lin.pp_history history
            Trace.pp trace)
  in
  Alcotest.(check bool) "exhaustive" false stats.Explore.limited;
  Alcotest.(check bool) "terminals checked" true (!checked > 0)

(* Claims 22-24 as direct output-shape checks: each result is ⊥ or the
   successor's value; when all k participate, some invocation returns ⊥ and
   some returns its successor's value. *)
let output_shape ~k () =
  let participants = List.init k Fun.id in
  let store, programs = harness ~k ~participants ~register_snapshots:false in
  let config = Config.make store programs in
  let result =
    Search.check_terminals config ~ok:(fun final ->
        let decisions =
          List.init k (fun i -> Option.get (Config.decision final i))
        in
        let shape_ok =
          List.for_all2
            (fun i d ->
              Value.is_bot d
              || Value.equal d (Value.Int (100 + ((i + 1) mod k))))
            (List.init k Fun.id) decisions
        in
        let some_bot = List.exists Value.is_bot decisions in
        let some_value = List.exists (fun d -> not (Value.is_bot d)) decisions in
        shape_ok && some_bot && some_value)
  in
  match result with
  | Ok stats -> Alcotest.(check bool) "exhaustive" false stats.Explore.limited
  | Error (final, trace, _) ->
    Alcotest.failf "bad outputs %a:@.%a" Value.pp
      (Value.Vec (Config.decisions final))
      Trace.pp trace

let wait_free ~k ~participants () =
  let store, programs =
    harness ~k ~participants ~register_snapshots:false
  in
  ignore (check_wait_free store ~programs)

(* A solo invocation must return ⊥ (it is the first linearized op). *)
let solo_returns_bot ~k ~i () =
  let store, programs = harness ~k ~participants:[ i ] ~register_snapshots:false in
  let config = Config.make store programs in
  let result =
    Search.check_terminals config ~ok:(fun final ->
        Config.decision final 0 = Some Value.Bot)
  in
  Alcotest.(check bool) "⊥ on every schedule" true (Result.is_ok result)

(* Sequential pair: the second invocation (predecessor index) must return
   the first's value — the scenario whose naive solution breaks
   linearizability (the doorway exists for it). *)
let sequential_pair () =
  let k = 3 in
  let store, t = Alg5.alloc Store.empty ~k () in
  let programs =
    [ Alg5.wrn t ~i:1 (Value.Int 101); Alg5.wrn t ~i:0 (Value.Int 100) ]
  in
  (* Run P0 (index 1) to completion, then P1 (index 0). *)
  let config = Config.make store programs in
  let r = Runner.run (Runner.Priority [ 0; 1 ]) config in
  Alcotest.check value "first invocation gets ⊥" Value.Bot
    (decision_exn r.Runner.final 0);
  Alcotest.check value "second reads its successor" (Value.Int 101)
    (decision_exn r.Runner.final 1)

(* Two sequential invocations in the other order return ⊥ then ⊥:
   index 0 completes, then index 1 runs and reads A[2] = ⊥. *)
let sequential_pair_other_order () =
  let k = 3 in
  let store, t = Alg5.alloc Store.empty ~k () in
  let programs =
    [ Alg5.wrn t ~i:0 (Value.Int 100); Alg5.wrn t ~i:1 (Value.Int 101) ]
  in
  let config = Config.make store programs in
  let r = Runner.run (Runner.Priority [ 0; 1 ]) config in
  Alcotest.check value "index 0 first: ⊥" Value.Bot
    (decision_exn r.Runner.final 0);
  Alcotest.check value "index 1 second: reads A[2]=⊥" Value.Bot
    (decision_exn r.Runner.final 1)

(* Combined with Algorithm 2 at the task level: the implemented 1sWRN_k
   solves (k−1)-set consensus — the full Theorem 2 pipeline, exhaustively
   for k=3. *)
let theorem2_pipeline ~k () =
  let store, t = Alg5.alloc Store.empty ~k () in
  let inputs = inputs k in
  let propose i v =
    let open Program.Syntax in
    let* r = Alg5.wrn t ~i v in
    if Value.is_bot r then Program.return v else Program.return r
  in
  let programs = List.mapi propose inputs in
  let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
  ignore (check_exhaustive ~max_states:2_000_000 store ~programs ~inputs ~task)

(* Section 5's proof skeleton: the precedence graph G built from any
   reachable execution satisfies Claims 27-30. *)
let graph_claims ~k ~use_impl () =
  let store, programs =
    if use_impl then harness ~k ~participants:(List.init k Fun.id) ~register_snapshots:false
    else
      let store, h =
        Store.alloc Store.empty (Subc_objects.One_shot_wrn.model ~k)
      in
      ( store,
        List.init k (fun i ->
            Subc_objects.One_shot_wrn.wrn h i (Value.Int (100 + i))) )
  in
  let config = Config.make store programs in
  let checked = ref 0 in
  let stats =
    Search.iter_terminals config ~f:(fun final _ ->
        incr checked;
        let results = List.init k (fun i -> Config.decision final i) in
        let g = Subc_core.Alg5_graph.of_results ~k results in
        let fail claim =
          Alcotest.failf "%s violated on %a" claim Subc_core.Alg5_graph.pp g
        in
        if not (Subc_core.Alg5_graph.neighbour_edges_exclusive g) then
          fail "claim 27";
        if not (Subc_core.Alg5_graph.acyclic g) then fail "corollary 28";
        if not (Subc_core.Alg5_graph.has_source_and_sink g) then
          fail "corollary 29")
  in
  Alcotest.(check bool) "exhaustive" false stats.Explore.limited;
  Alcotest.(check bool) "terminals seen" true (!checked > 0)

let suite =
  [
    ( "alg5.graph",
      [
        test "claims 27-30 on the primitive object (k=3)"
          (graph_claims ~k:3 ~use_impl:false);
        test "claims 27-30 on the primitive object (k=4)"
          (graph_claims ~k:4 ~use_impl:false);
        test_slow "claims 27-30 on the Algorithm 5 implementation (k=3)"
          (graph_claims ~k:3 ~use_impl:true);
        test_slow "claims 27-30 on the Algorithm 5 implementation (k=4)"
          (graph_claims ~k:4 ~use_impl:true);
      ] );
    ( "alg5.linearizability",
      [
        test_slow "k=4, two participants (1,2), exhaustive"
          (linearizable ~k:4 ~participants:[ 1; 2 ]);
        test_slow "k=4, three participants (0,1,3), exhaustive"
          (linearizable ~k:4 ~participants:[ 0; 1; 3 ]);
        test_slow "k=3, two participants, register snapshots"
          (linearizable ~k:3 ~participants:[ 0; 1 ] ~register_snapshots:true
             ~max_states:4_000_000);
      ] );
    ( "alg5.claims",
      [
        test_slow "claims 22-24: output shape (k=3)" (output_shape ~k:3);
        test "wait-free (k=3, all)" (wait_free ~k:3 ~participants:[ 0; 1; 2 ]);
        test "solo invocation returns ⊥ (k=3, i=0)" (solo_returns_bot ~k:3 ~i:0);
        test "solo invocation returns ⊥ (k=3, i=2)" (solo_returns_bot ~k:3 ~i:2);
        test "sequential pair: predecessor reads successor" sequential_pair;
        test "sequential pair: successor reads ⊥" sequential_pair_other_order;
        test_slow "theorem 2: implemented 1sWRN solves (k−1)-set consensus"
          (theorem2_pipeline ~k:3);
      ] );
  ]
