(* Algorithm 3: (k−1)-set consensus for k participants out of many
   (experiment E3, Claims 11-18). *)
open Subc_sim
open Helpers
module Alg3 = Subc_core.Alg3
module Task = Subc_tasks.Task
module FF = Subc_core.Function_family

let setup ~k ~flavor ~renamer ?family ~ids () =
  let store, t = Alg3.alloc Store.empty ~k ~flavor ~renamer ?family () in
  let inputs = List.map (fun id -> Value.Int (100 + id)) ids in
  let programs =
    List.mapi
      (fun slot id -> Alg3.propose t ~slot ~id (Value.Int (100 + id)))
      ids
  in
  (store, programs, inputs)

let exhaustive ~k ~flavor ~renamer ?family ~ids () =
  let store, programs, inputs = setup ~k ~flavor ~renamer ?family ~ids () in
  let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
  ignore (check_exhaustive store ~programs ~inputs ~task)

let sampled ~k ~flavor ~renamer ?family ~ids () =
  let store, programs, inputs = setup ~k ~flavor ~renamer ?family ~ids () in
  let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
  let stats =
    Subc_check.Task_check.sample store ~programs ~inputs ~task
      ~seeds:(seeds 200)
  in
  if stats.Subc_check.Task_check.violations > 0 then
    Alcotest.failf "violations: %a" Subc_check.Task_check.pp_sample_stats stats

let family_tests =
  [
    test "all functions: size k^N" (fun () ->
        Alcotest.(check int) "2^3" 8 (List.length (FF.all ~names:3 ~k:2));
        Alcotest.(check int) "3^4" 81 (List.length (FF.all ~names:4 ~k:3)));
    test "covering family: one surjection per k-subset" (fun () ->
        Alcotest.(check int) "C(5,3)" 10
          (List.length (FF.covering ~names:5 ~k:3)));
    test "covering family covers every k-subset" (fun () ->
        let names = 5 and k = 3 in
        let family = FF.covering ~names ~k in
        let rec subsets start size =
          if size = 0 then [ [] ]
          else
            List.concat
              (List.init
                 (names - start - size + 1)
                 (fun d ->
                   let x = start + d in
                   List.map (fun r -> x :: r) (subsets (x + 1) (size - 1))))
        in
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (Printf.sprintf "subset %s covered"
                 (String.concat "," (List.map string_of_int s)))
              true
              (List.exists (fun f -> FF.covers f s k) family))
          (subsets 0 k));
    test "the full family also covers" (fun () ->
        let family = FF.all ~names:3 ~k:2 in
        Alcotest.(check bool) "covers {0,2}" true
          (List.exists (fun f -> FF.covers f [ 0; 2 ] 2) family));
  ]

let alg3_tests =
  [
    (* k=2: (k−1)-set consensus is full consensus; WRN₂ is a swap, so this
       must pass — a sharp correctness test of the whole sweep logic. *)
    test "k=2 plain, identity names, exhaustive = consensus"
      (exhaustive ~k:2 ~flavor:Alg3.Plain_wrn ~renamer:(Alg3.Rename_identity 3)
         ~ids:[ 0; 2 ]);
    test "k=2 relaxed, identity names, exhaustive"
      (exhaustive ~k:2 ~flavor:Alg3.Relaxed_wrn
         ~renamer:(Alg3.Rename_identity 3) ~ids:[ 0; 2 ]);
    (* k=3 with identity names covering exactly {0,1,2}: degenerates to a
       single WRN₃ (the covering family has one function). *)
    test "k=3 plain, tight identity names, exhaustive"
      (exhaustive ~k:3 ~flavor:Alg3.Plain_wrn ~renamer:(Alg3.Rename_identity 3)
         ~ids:[ 0; 1; 2 ]);
    (* k=3 over a 5-name space: 10 instances; exhaustive on the plain
       flavor; the relaxed flavor is sampled. *)
    test_slow "k=3 plain, 5-name space, exhaustive"
      (exhaustive ~k:3 ~flavor:Alg3.Plain_wrn ~renamer:(Alg3.Rename_identity 5)
         ~ids:[ 0; 2; 4 ]);
    test "k=3 relaxed, 5-name space, sampled"
      (sampled ~k:3 ~flavor:Alg3.Relaxed_wrn ~renamer:(Alg3.Rename_identity 5)
         ~ids:[ 0; 2; 4 ]);
    test "k=3 plain, grid renaming, sampled"
      (sampled ~k:3 ~flavor:Alg3.Plain_wrn ~renamer:Alg3.Rename_grid
         ~ids:[ 19; 3; 11 ]);
    test "k=3 relaxed, snapshot renaming, sampled"
      (sampled ~k:3 ~flavor:Alg3.Relaxed_wrn ~renamer:Alg3.Rename_snapshot
         ~ids:[ 19; 3; 11 ]);
    test "k=2 plain, immediate-snapshot renaming, exhaustive"
      (exhaustive ~k:2 ~flavor:Alg3.Plain_wrn ~renamer:Alg3.Rename_immediate
         ~ids:[ 13; 7 ]);
    test "k=3 relaxed, immediate-snapshot renaming, sampled"
      (sampled ~k:3 ~flavor:Alg3.Relaxed_wrn ~renamer:Alg3.Rename_immediate
         ~ids:[ 19; 3; 11 ]);
    (* Fewer than k participants: still (k−1)-agreement and validity. *)
    test "k=3, only 2 participants, exhaustive"
      (exhaustive ~k:3 ~flavor:Alg3.Plain_wrn ~renamer:(Alg3.Rename_identity 5)
         ~ids:[ 1; 3 ]);
    test "k=3, single participant decides its own value" (fun () ->
        let store, programs, inputs =
          setup ~k:3 ~flavor:Alg3.Plain_wrn ~renamer:(Alg3.Rename_identity 5)
            ~ids:[ 2 ] ()
        in
        let config = Config.make store programs in
        let r = Runner.run Runner.Round_robin config in
        Alcotest.check value "own value" (List.hd inputs)
          (decision_exn r.Runner.final 0));
    test "paper's full family also works (k=2, N=3, sampled)"
      (sampled ~k:2 ~flavor:Alg3.Plain_wrn ~renamer:(Alg3.Rename_identity 3)
         ~family:(FF.all ~names:3 ~k:2) ~ids:[ 0; 2 ]);
    (* Claim 16: when all k participate with distinct inputs, some process
       decides another's proposal — on every schedule. *)
    test "claim 16: someone adopts another's value (k=2, exhaustive)"
      (fun () ->
        let store, programs, inputs =
          setup ~k:2 ~flavor:Alg3.Plain_wrn ~renamer:(Alg3.Rename_identity 3)
            ~ids:[ 0; 2 ] ()
        in
        let config = Config.make store programs in
        let result =
          Search.check_terminals config ~ok:(fun final ->
              List.exists
                (fun (i, input) ->
                  match Config.decision final i with
                  | Some d -> not (Value.equal d input)
                  | None -> false)
                (List.mapi (fun i input -> (i, input)) inputs))
        in
        Alcotest.(check bool) "adoption on every schedule" true
          (Result.is_ok result));
    test "claim 16: someone adopts another's value (k=3, exhaustive)"
      (fun () ->
        let store, programs, inputs =
          setup ~k:3 ~flavor:Alg3.Plain_wrn ~renamer:(Alg3.Rename_identity 3)
            ~ids:[ 0; 1; 2 ] ()
        in
        let config = Config.make store programs in
        let result =
          Search.check_terminals config ~ok:(fun final ->
              List.exists
                (fun (i, input) ->
                  match Config.decision final i with
                  | Some d -> not (Value.equal d input)
                  | None -> false)
                (List.mapi (fun i input -> (i, input)) inputs))
        in
        Alcotest.(check bool) "adoption on every schedule" true
          (Result.is_ok result));
    test "wait-free (k=3, relaxed, 4-name space)" (fun () ->
        let store, programs, _ =
          setup ~k:3 ~flavor:Alg3.Relaxed_wrn
            ~renamer:(Alg3.Rename_identity 4) ~ids:[ 0; 1; 3 ] ()
        in
        ignore (check_wait_free store ~programs));
    test "wait-free (k=2, relaxed, grid)" (fun () ->
        let store, programs, _ =
          setup ~k:2 ~flavor:Alg3.Relaxed_wrn ~renamer:Alg3.Rename_grid
            ~ids:[ 4; 9 ] ()
        in
        ignore (check_wait_free store ~programs));
  ]

let suite =
  [ ("alg3.function-family", family_tests); ("alg3.set-consensus", alg3_tests) ]
