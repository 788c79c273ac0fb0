(* Substrate 4: wait-free renaming (needed by Algorithm 3 / Section 4.2). *)
open Subc_sim
open Helpers
module Grid = Subc_renaming.Grid_renaming
module Snap_ren = Subc_renaming.Snapshot_renaming
module Task = Subc_tasks.Task

let grid_setup ~k ~ids =
  let store, g = Grid.alloc Store.empty ~k in
  let programs =
    List.map
      (fun id -> Program.map (fun n -> Value.Int n) (Grid.rename g ~me:id))
      ids
  in
  (store, programs)

let snap_setup ~k ~ids =
  let store, s =
    Snap_ren.alloc Store.empty ~slots:k
      ~snapshot:Subc_rwmem.Snapshot_api.primitive
  in
  let programs =
    List.mapi
      (fun slot id ->
        Program.map (fun n -> Value.Int n) (Snap_ren.rename s ~slot ~id))
      ids
  in
  (store, programs)

let exhaustive_renaming ~setup ~bound ~ids () =
  let store, programs = setup ~ids in
  let inputs = List.map (fun id -> Value.Int id) ids in
  let task = Task.conj (Task.renaming ~bound) Task.all_decided in
  (* Renaming does not satisfy set-consensus validity: outputs are fresh
     names, so check only distinctness/range/termination. *)
  let config = Config.make store programs in
  let result =
    Search.check_terminals config ~ok:(fun final ->
        Result.is_ok (task.Task.check (Task.outcomes ~inputs final)))
  in
  match result with
  | Ok stats -> Alcotest.(check bool) "exhaustive" false stats.Explore.limited
  | Error (final, trace, _) ->
    Alcotest.failf "renaming violated: %s@.%a"
      (Option.value ~default:"?" (Task.explain task ~inputs final))
      Trace.pp trace

let sampled_renaming ~setup ~bound ~ids () =
  let store, programs = setup ~ids in
  let config = Config.make store programs in
  List.iter
    (fun seed ->
      let r = Runner.run (Runner.Random seed) config in
      Alcotest.(check bool) "completed" true r.Runner.completed;
      let names =
        List.filter_map (Config.decision r.Runner.final)
          (List.init (List.length ids) Fun.id)
      in
      Alcotest.(check int) "all decided" (List.length ids) (List.length names);
      Alcotest.(check int) "distinct names"
        (List.length ids)
        (List.length (Task.distinct names));
      List.iter
        (fun n ->
          let n = Value.to_int n in
          Alcotest.(check bool) "in range" true (0 <= n && n < bound))
        names)
    (seeds 100)

let wait_free_renaming ~setup ~ids () =
  let store, programs = setup ~ids in
  ignore (check_wait_free store ~programs)

let solo_gets_first_name () =
  let store, programs = grid_setup ~k:3 ~ids:[ 42 ] in
  let config = Config.make store programs in
  let r = Runner.run Runner.Round_robin config in
  Alcotest.check value "solo walker stops at (0,0)" (Value.Int 0)
    (decision_exn r.Runner.final 0)

let snapshot_solo_gets_first_name () =
  let store, programs = snap_setup ~k:3 ~ids:[ 42 ] in
  let config = Config.make store programs in
  let r = Runner.run Runner.Round_robin config in
  Alcotest.check value "solo process keeps proposal 1 → name 0" (Value.Int 0)
    (decision_exn r.Runner.final 0)

let is_setup ~k ~ids =
  let store, r = Subc_renaming.Is_renaming.alloc Store.empty ~k in
  let programs =
    List.mapi
      (fun slot id ->
        Program.map (fun n -> Value.Int n)
          (Subc_renaming.Is_renaming.rename r ~slot ~id))
      ids
  in
  (store, programs)

let is_order_preserving () =
  (* Within one view, ranks follow identifier order: on any schedule the
     name order never inverts the identifier order for processes that saw
     each other... the simple checkable consequence: a solo participant
     gets name 0. *)
  let store, programs = is_setup ~k:3 ~ids:[ 42 ] in
  let config = Config.make store programs in
  let r = Runner.run Runner.Round_robin config in
  Alcotest.check value "solo name 0" (Value.Int 0) (decision_exn r.Runner.final 0)

let suite =
  [
    ( "renaming.immediate-snapshot",
      [
        test "bound formula" (fun () ->
            Alcotest.(check int) "k=3" 6
              (Subc_renaming.Is_renaming.bound ~k:3));
        test "exhaustive k=2"
          (exhaustive_renaming
             ~setup:(fun ~ids -> is_setup ~k:2 ~ids)
             ~bound:(Subc_renaming.Is_renaming.bound ~k:2)
             ~ids:[ 10; 20 ]);
        test "exhaustive k=3"
          (exhaustive_renaming
             ~setup:(fun ~ids -> is_setup ~k:3 ~ids)
             ~bound:(Subc_renaming.Is_renaming.bound ~k:3)
             ~ids:[ 10; 20; 30 ]);
        test "sampled k=5"
          (sampled_renaming
             ~setup:(fun ~ids -> is_setup ~k:5 ~ids)
             ~bound:(Subc_renaming.Is_renaming.bound ~k:5)
             ~ids:[ 5; 11; 2; 7; 30 ]);
        test "wait-free k=3"
          (wait_free_renaming
             ~setup:(fun ~ids -> is_setup ~k:3 ~ids)
             ~ids:[ 1; 2; 3 ]);
        test "solo participant gets name 0" is_order_preserving;
      ] );
    ( "renaming.grid",
      [
        test "bound formula" (fun () ->
            Alcotest.(check int) "k=3" 6 (Grid.bound ~k:3);
            Alcotest.(check int) "k=4" 10 (Grid.bound ~k:4));
        test "exhaustive k=2"
          (exhaustive_renaming
             ~setup:(fun ~ids -> grid_setup ~k:2 ~ids)
             ~bound:(Grid.bound ~k:2) ~ids:[ 10; 20 ]);
        test_slow "exhaustive k=3"
          (exhaustive_renaming
             ~setup:(fun ~ids -> grid_setup ~k:3 ~ids)
             ~bound:(Grid.bound ~k:3) ~ids:[ 10; 20; 30 ]);
        test "sampled k=4"
          (sampled_renaming
             ~setup:(fun ~ids -> grid_setup ~k:4 ~ids)
             ~bound:(Grid.bound ~k:4) ~ids:[ 5; 11; 2; 7 ]);
        test "wait-free k=3"
          (wait_free_renaming ~setup:(fun ~ids -> grid_setup ~k:3 ~ids)
             ~ids:[ 1; 2; 3 ]);
        test "solo walker stops immediately" solo_gets_first_name;
      ] );
    ( "renaming.snapshot",
      [
        test "bound formula" (fun () ->
            Alcotest.(check int) "k=3" 5 (Snap_ren.bound ~k:3));
        test "exhaustive k=2"
          (exhaustive_renaming
             ~setup:(fun ~ids -> snap_setup ~k:2 ~ids)
             ~bound:(Snap_ren.bound ~k:2) ~ids:[ 10; 20 ]);
        test_slow "exhaustive k=3"
          (exhaustive_renaming
             ~setup:(fun ~ids -> snap_setup ~k:3 ~ids)
             ~bound:(Snap_ren.bound ~k:3) ~ids:[ 10; 20; 30 ]);
        test "sampled k=4"
          (sampled_renaming
             ~setup:(fun ~ids -> snap_setup ~k:4 ~ids)
             ~bound:(Snap_ren.bound ~k:4) ~ids:[ 5; 11; 2; 7 ]);
        test "wait-free k=3"
          (wait_free_renaming ~setup:(fun ~ids -> snap_setup ~k:3 ~ids)
             ~ids:[ 1; 2; 3 ]);
        test "solo process keeps first proposal" snapshot_solo_gets_first_name;
      ] );
  ]
