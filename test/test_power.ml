(* Task equivalences (Section 2) and the set-consensus power matrix of
   the conclusion; the known-answer table E13 pins every cell's verdict
   (test_experiments). *)
open Subc_sim
open Helpers
module Eq = Subc_core.Election_equiv
module P = Subc_classic.Set_consensus_power
module Task = Subc_tasks.Task

(* --- set consensus ⇔ set election ----------------------------------- *)

let consensus_from_election_exhaustive ~slots ~k () =
  let store, election = Eq.election_of_set_consensus Store.empty ~slots ~k in
  let store, t = Eq.set_consensus_of_election store election in
  let inputs = inputs slots in
  let programs = List.mapi (fun slot v -> Eq.propose t ~slot v) inputs in
  let task = Task.conj (Task.set_consensus k) Task.all_decided in
  ignore (check_exhaustive store ~programs ~inputs ~task)

let consensus_from_wrn_election ~k () =
  (* The full pipeline: 1sWRN_k → (k,k−1)-set election → (k,k−1)-set
     consensus over arbitrary values. *)
  let store, election = Eq.election_of_one_shot_wrn Store.empty ~k in
  let store, t = Eq.set_consensus_of_election store election in
  let inputs = List.init k (fun i -> Value.Sym (Printf.sprintf "v%d" i)) in
  let programs = List.mapi (fun slot v -> Eq.propose t ~slot v) inputs in
  let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
  ignore (check_exhaustive store ~programs ~inputs ~task)

let election_validity ~slots ~k () =
  (* The elected leader is always a participant. *)
  let store, election = Eq.election_of_set_consensus Store.empty ~slots ~k in
  let participants = [ 0; slots - 1 ] in
  let programs =
    List.map
      (fun me -> Program.map (fun l -> Value.Int l) (election.Eq.elect ~me))
      participants
  in
  let config = Config.make store programs in
  let result =
    Search.check_terminals config ~ok:(fun final ->
        List.for_all
          (fun i ->
            match Config.decision final i with
            | Some (Value.Int l) -> List.mem l participants
            | _ -> false)
          [ 0; 1 ])
  in
  Alcotest.(check bool) "leaders are participants" true (Result.is_ok result)

let equivalence_tests =
  [
    test "set consensus from set election (3 slots, k=2, exhaustive)"
      (consensus_from_election_exhaustive ~slots:3 ~k:2);
    test "set consensus from set election (4 slots, k=3, exhaustive)"
      (consensus_from_election_exhaustive ~slots:4 ~k:3);
    test "consensus from election at k=1 (2 slots, exhaustive)"
      (consensus_from_election_exhaustive ~slots:2 ~k:1);
    test "1sWRN₃ → election → set consensus (exhaustive)"
      (consensus_from_wrn_election ~k:3);
    test "1sWRN₄ → election → set consensus (exhaustive)"
      (consensus_from_wrn_election ~k:4);
    test "election validity under partial participation"
      (election_validity ~slots:4 ~k:2);
  ]

(* --- the power matrix ------------------------------------------------ *)

(* Every refutation replays: registers cannot solve (2,1)-set consensus,
   and the witness ends at a terminal that violates the task. *)
let registers_violation_replays () =
  let n = 2 and k = 1 in
  let store, programs = P.protocol Store.empty P.Registers ~n in
  let final =
    refutation_end (Config.make store programs) (P.verdict P.Registers ~n ~k)
  in
  Alcotest.(check bool) "the witness ends at a terminal" true
    (Config.is_terminal final);
  Alcotest.(check bool) "the terminal violates the task" true
    (Task.explain
       (Task.conj (Task.set_consensus k) Task.all_decided)
       ~inputs:(inputs n) final
    <> None)

let power_tests =
  [
    test "registers at (2,1): the violation replays"
      registers_violation_replays;
    test "predicted bounds are monotone in n" (fun () ->
        List.iter
          (fun family ->
            List.iter
              (fun n ->
                Alcotest.(check bool) "monotone" true
                  (P.predicted_bound family ~n
                  <= P.predicted_bound family ~n:(n + 1)))
              [ 1; 2; 3; 4; 5 ])
          [ P.Registers; P.Wrn_objects 3; P.Two_consensus_pairs; P.Cas_object ]);
    test "WRN bound matches Algorithm 6's" (fun () ->
        List.iter
          (fun (n, j) ->
            Alcotest.(check int) "same bound"
              (Subc_core.Alg6.agreement_bound ~n ~k:j)
              (P.predicted_bound (P.Wrn_objects j) ~n))
          [ (3, 3); (4, 3); (12, 3); (7, 4) ]);
  ]

let suite =
  [ ("equiv.election", equivalence_tests); ("power.matrix", power_tests) ]
