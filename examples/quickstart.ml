(* Quickstart: build a WRN₃ object, run Algorithm 2's (k−1)-set consensus
   on it under a few schedules, then let the model checker prove the
   2-agreement bound for this instance.

   Run with: dune exec examples/quickstart.exe *)

open Subc_sim
module Alg2 = Subc_core.Alg2
module Task = Subc_tasks.Task

let () =
  let k = 3 in
  (* One shared WRN₃ object; process i proposes 100+i. *)
  let store, alg = Alg2.alloc Store.empty ~k ~one_shot:false in
  let inputs = List.init k (fun i -> Value.Int (100 + i)) in
  let programs = List.mapi (fun i v -> Alg2.propose alg ~i v) inputs in
  let config = Config.make store programs in

  Format.printf "== Algorithm 2 on WRN_%d: three schedules ==@." k;
  List.iter
    (fun (label, strategy) ->
      let r = Runner.run strategy config in
      Format.printf "%-12s decisions: %a@." label Value.pp
        (Value.Vec (Config.decisions r.Runner.final)))
    [
      ("round-robin", Runner.Round_robin);
      ("random(1)", Runner.Random 1);
      ("random(2)", Runner.Random 2);
    ];

  (* One full trace, so you can see the single atomic WRN step of each
     process. *)
  let r = Runner.run (Runner.Random 7) config in
  Format.printf "@.trace of random(7):@.%a@." Trace.pp r.Runner.trace;

  (* Now the interesting part: the model checker quantifies over ALL
     schedules and proves at most k−1 = 2 distinct decisions. *)
  Format.printf "@.== model checking all interleavings ==@.";
  let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
  (match Subc_check.Task_check.check store ~programs ~inputs ~task with
  | Subc_check.Verdict.Proved _ as v ->
    Format.printf "%a@." Subc_check.Verdict.pp_summary v
  | Subc_check.Verdict.Refuted { reason; trace; _ } ->
    Format.printf "VIOLATION: %s@.%a@." reason Trace.pp trace
  | Subc_check.Verdict.Limited _ as v ->
    Format.printf "%a@." Subc_check.Verdict.pp_summary v);

  (* And the bound is tight: some schedule really produces 2 distinct
     values. *)
  let best = ref 0 in
  let _ =
    Search.iter_terminals config ~f:(fun final _ ->
        best := max !best (List.length (Task.distinct (Config.decisions final))))
  in
  Format.printf "max distinct decisions over all schedules: %d (bound %d)@."
    !best (k - 1)
