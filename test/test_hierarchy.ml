(* Section 7.2: Theorem 41's partition construction and the Corollary 42
   hierarchy (experiment E8). *)
open Subc_sim
open Helpers
module Hierarchy = Subc_core.Hierarchy
module Task = Subc_tasks.Task

let arithmetic_tests =
  [
    test "partition bound" (fun () ->
        Alcotest.(check int) "(4,·) from (3,2)" 3
          (Hierarchy.partition_bound ~n:4 ~m:3 ~j:2);
        Alcotest.(check int) "(6,·) from (3,2)" 4
          (Hierarchy.partition_bound ~n:6 ~m:3 ~j:2);
        Alcotest.(check int) "(7,·) from (3,2)" 5
          (Hierarchy.partition_bound ~n:7 ~m:3 ~j:2));
    test "(k′,k′−1) always implementable from (k,k−1), k ≤ k′" (fun () ->
        List.iter
          (fun (k, k') ->
            Alcotest.(check bool)
              (Printf.sprintf "k=%d k'=%d" k k')
              true
              (Hierarchy.implementable ~n:k' ~k:(k' - 1) ~m:k ~j:(k - 1)))
          [ (3, 3); (3, 4); (3, 5); (3, 7); (4, 6); (5, 9) ]);
    test "converse direction violates Theorem 41's ratio" (fun () ->
        List.iter
          (fun (k, k') ->
            Alcotest.(check bool)
              (Printf.sprintf "k=%d k'=%d separates" k k')
              true
              (Hierarchy.separates ~k ~k'))
          [ (3, 4); (3, 5); (4, 5); (5, 8) ]);
    test "separates is irreflexive and ordered" (fun () ->
        Alcotest.(check bool) "k=k' does not separate" false
          (Hierarchy.separates ~k:4 ~k':4);
        Alcotest.(check bool) "k>k' does not separate" false
          (Hierarchy.separates ~k:5 ~k':4));
  ]

let partition_exhaustive ~n ~m ~j () =
  let store, t = Hierarchy.alloc_set_consensus Store.empty ~n ~m ~j in
  let inputs = inputs n in
  let programs = List.mapi (fun i v -> Hierarchy.propose t ~i v) inputs in
  let bound = Hierarchy.partition_bound ~n ~m ~j in
  let task = Task.conj (Task.set_consensus bound) Task.all_decided in
  ignore (check_exhaustive store ~programs ~inputs ~task)

let partition_tests =
  [
    test "(4,3) from (3,2) objects, exhaustive" (partition_exhaustive ~n:4 ~m:3 ~j:2);
    test_slow "(5,4) from (3,2) objects, exhaustive"
      (partition_exhaustive ~n:5 ~m:3 ~j:2);
    test "(4,2) from (2,1) objects (consensus groups), exhaustive"
      (partition_exhaustive ~n:4 ~m:2 ~j:1);
  ]

(* The executable Corollary 42(2) chain: a 1sWRN_{k'} built via Algorithm 5;
   its (k′,k′−1) power feeds Algorithm 2 to solve (k′−1)-set consensus —
   checked end-to-end for k′=3 (one-shot WRN indices are used once). *)
let chain_tests =
  [
    test_slow "1sWRN_3 from the chain solves 2-set consensus" (fun () ->
        let store, t = Hierarchy.alloc_one_shot_wrn Store.empty ~k':3 in
        let inputs = inputs 3 in
        let propose i v =
          let open Program.Syntax in
          let* r = Subc_core.Alg5.wrn t ~i v in
          if Value.is_bot r then Program.return v else Program.return r
        in
        let programs = List.mapi propose inputs in
        let task = Task.conj (Task.set_consensus 2) Task.all_decided in
        ignore (check_exhaustive ~max_states:2_000_000 store ~programs ~inputs ~task));
    test_slow "1sWRN_4 from the chain solves 3-set consensus" (fun () ->
        let store, t = Hierarchy.alloc_one_shot_wrn Store.empty ~k':4 in
        let inputs = inputs 4 in
        let propose i v =
          let open Program.Syntax in
          let* r = Subc_core.Alg5.wrn t ~i v in
          if Value.is_bot r then Program.return v else Program.return r
        in
        let programs = List.mapi propose inputs in
        let task = Task.conj (Task.set_consensus 3) Task.all_decided in
        ignore
          (check_exhaustive ~max_states:8_000_000 store ~programs ~inputs ~task));
    test "1sWRN_{k'} from 1sWRN_k at the task level (k=3,k'=4, sampled)"
      (fun () ->
        (* (4,3)-set consensus from 1sWRN₃ objects via Algorithm 6 — the
           task-level half of the chain, with real 1sWRN₃ objects. *)
        let store, t = Subc_core.Alg6.alloc Store.empty ~n:4 ~k:3 ~one_shot:true in
        let inputs = inputs 4 in
        let programs =
          List.mapi (fun i v -> Subc_core.Alg6.propose t ~i v) inputs
        in
        let task = Task.conj (Task.set_consensus 3) Task.all_decided in
        let stats =
          Subc_check.Task_check.sample store ~programs ~inputs ~task
            ~seeds:(seeds 200)
        in
        Alcotest.(check int) "no violations" 0
          stats.Subc_check.Task_check.violations);
  ]

let suite =
  [
    ("hierarchy.arithmetic", arithmetic_tests);
    ("hierarchy.partition", partition_tests);
    ("hierarchy.chain", chain_tests);
  ]
