(* Fault injection: wait-free means crash-oblivious safety — and crash
   faults are first-class transitions of the simulator.

   A process that crashes is indistinguishable from one that is merely
   slow, so a wait-free algorithm's safety properties must survive any
   crash pattern at any point.  This example drives Algorithm 2 through:

   1. a deterministic crash-at-step run, drawn as a space-time diagram in
      which the crashes themselves appear as events;
   2. 500 randomized crash scenarios under the seeded crash adversary;
   3. an *exhaustive* crash sweep — the model checker quantifies over
      every interleaving and every crash pattern of at most f crashes;
   4. the wait-freedom checker: a solo-step-bound certificate for
      Algorithm 2, and a counterexample schedule for a deliberately
      lock-free-only spinner.

   Run with: dune exec examples/fault_injection.exe *)

open Subc_sim
module Task = Subc_tasks.Task
module Task_check = Subc_check.Task_check
module Progress = Subc_check.Progress

let k = 4

let harness ~k =
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  let inputs = List.init k (fun i -> Value.Int (100 + i)) in
  let programs = List.mapi (fun i v -> Subc_core.Alg2.propose t ~i v) inputs in
  (store, programs, inputs)

let () =
  let store, programs, inputs = harness ~k in

  Format.printf "== one crashed run, drawn (P1 dies at step 1, P0 at 2) ==@.";
  let config = Config.make store programs in
  let r =
    Runner.run
      (Runner.Recover_after
         { crashes = [ (1, 1); (2, 0) ]; recoveries = []; seed = Some 5 })
      config
  in
  Format.printf "%a@." (Trace.pp_diagram ~n_procs:k) r.Runner.trace;
  List.iteri
    (fun i _ ->
      match Config.decision r.Runner.final i with
      | Some v -> Format.printf "P%d decided %a@." i Value.pp v
      | None -> Format.printf "P%d crashed undecided@." i)
    inputs;
  (* The crash-containing trace replays deterministically. *)
  (match Replay.final config r.Runner.trace with
  | Ok replayed ->
    assert (Config.decisions replayed = Config.decisions r.Runner.final);
    Format.printf "(replay of the crash trace reproduces the same outcome)@."
  | Error { at; reason } ->
    Format.printf "replay failed at %d: %s@." at reason);

  Format.printf "@.== 500 randomized crash scenarios ==@.";
  let task = Task.set_consensus (k - 1) in
  let stats =
    Task_check.sample ~max_crashes:(k - 1) store ~programs ~inputs ~task
      ~seeds:(List.init 500 (fun i -> i + 1))
  in
  Format.printf "%a@." Task_check.pp_sample_stats stats;
  assert (stats.Task_check.violations = 0);
  Format.printf
    "no crash pattern broke validity or %d-agreement — the survivors'@."
    (k - 1);
  Format.printf "decisions are always a legal partial outcome.@.";

  Format.printf "@.== exhaustive crash sweep: Algorithm 2, k=3, f <= 2 ==@.";
  let store3, programs3, inputs3 = harness ~k:3 in
  let task3 = Task.set_consensus 2 in
  List.iter
    (fun f ->
      let config = Config.make store3 programs3 in
      match
        Search.check_terminals
          ~options:Search.(default |> with_max_crashes f)
          config ~ok:(fun c ->
            Task.satisfies task3 ~inputs:inputs3 c)
      with
      | Ok stats ->
        Format.printf "f=%d: every crash pattern is safe  (%a)@." f
          Explore.pp_stats stats
      | Error (_, trace, _) ->
        Format.printf "f=%d: VIOLATION@.%a@." f Trace.pp trace)
    [ 0; 1; 2 ];

  Format.printf "@.== wait-freedom certificates (solo-step bounds) ==@.";
  Format.printf "Algorithm 2 (k=3): %a@." Subc_check.Verdict.pp_summary
    (Progress.check_wait_free
       ~options:Search.(with_max_crashes 2 default)
       store3 ~programs:programs3);

  (* A lock-free-only construction: P0 spins until P1's write lands.  Safe,
     live under fair schedules — but P0 running solo never terminates. *)
  let store_s, reg = Store.alloc Store.empty Subc_objects.Register.model_bot in
  let spinner =
    let open Program.Syntax in
    let rec spin () =
      let* () = Program.checkpoint (Value.Sym "spin") in
      let* v = Subc_objects.Register.read reg in
      if Value.is_bot v then spin () else Program.return v
    in
    spin ()
  in
  let writer =
    let open Program.Syntax in
    let* () = Subc_objects.Register.write reg (Value.Int 1) in
    Program.return (Value.Int 1)
  in
  match Progress.check_wait_free store_s ~programs:[ spinner; writer ] with
  | Subc_check.Verdict.Refuted { reason; _ } ->
    Format.printf "spinner (lock-free only): NOT wait-free — %s@." reason
  | v ->
    Format.printf "spinner: unexpectedly %a@." Subc_check.Verdict.pp_summary v
