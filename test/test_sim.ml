(* Substrate 1: the simulator itself. *)
open Subc_sim
open Helpers
module Register = Subc_objects.Register
module Consensus_obj = Subc_objects.Consensus_obj

let value_tests =
  [
    test "vec get/set are functional" (fun () ->
        let v = Value.bot_vec 3 in
        let v' = Value.vec_set v 1 (Value.Int 7) in
        Alcotest.check value "unchanged" Value.Bot (Value.vec_get v 1);
        Alcotest.check value "updated" (Value.Int 7) (Value.vec_get v' 1);
        Alcotest.check value "other cells kept" Value.Bot (Value.vec_get v' 0));
    test "compare is antisymmetric on mixed shapes" (fun () ->
        let vs =
          [ Value.Bot; Value.Int 1; Value.Sym "a";
            Value.Pair (Value.Int 1, Value.Bot); Value.Vec [ Value.Int 2 ] ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let ab = Value.compare a b and ba = Value.compare b a in
                Alcotest.(check bool) "antisymmetric" true
                  ((ab > 0 && ba < 0) || (ab < 0 && ba > 0) || (ab = 0 && ba = 0)))
              vs)
          vs);
    test "to_int raises on wrong shape" (fun () ->
        match Value.to_int (Value.Sym "x") with
        | exception Value.Type_error _ -> ()
        | _ -> Alcotest.fail "expected Type_error");
    test "pp prints bot and vectors" (fun () ->
        Alcotest.(check string) "bot" "⊥" (Value.to_string Value.Bot);
        Alcotest.(check string) "vec" "[1; ⊥]"
          (Value.to_string (Value.Vec [ Value.Int 1; Value.Bot ])));
    test "hash agrees with equal" (fun () ->
        let a = Value.Pair (Value.Int 1, Value.Vec [ Value.Bot ]) in
        let b = Value.Pair (Value.Int 1, Value.Vec [ Value.Bot ]) in
        Alcotest.(check bool) "equal" true (Value.equal a b);
        Alcotest.(check int) "same hash" (Value.hash a) (Value.hash b));
  ]

let program_tests =
  let open Program.Syntax in
  let run_solo store program =
    let config = Config.make store [ program ] in
    let r = Runner.run Runner.Round_robin config in
    decision_exn r.Runner.final 0
  in
  [
    test "fold_range threads its accumulator" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let program =
          let* total =
            Program.fold_range 0 5 0 (fun acc i ->
                let* () = Register.write reg (Value.Int i) in
                Program.return (acc + i))
          in
          Program.return (Value.Int total)
        in
        Alcotest.check value "sum 0..4" (Value.Int 10) (run_solo store program));
    test "first_some stops at the first hit" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let program =
          let* r =
            Program.first_some 0 10 (fun i ->
                let* () = Register.write reg (Value.Int i) in
                Program.return (if i = 3 then Some (Value.Int i) else None))
          in
          Program.return (Option.value r ~default:Value.Bot)
        in
        Alcotest.check value "found 3" (Value.Int 3) (run_solo store program));
    test "map_list preserves order" (fun () ->
        let store, regs = Store.alloc_many Store.empty 3 Register.model_bot in
        let write_all =
          let* () =
            Program.iter_list (fun h -> Register.write h (Value.Int 1)) regs
          in
          let* vs = Program.map_list Register.read regs in
          Program.return (Value.Vec vs)
        in
        Alcotest.check value "all ones"
          (Value.of_int_list [ 1; 1; 1 ])
          (run_solo store write_all));
    test "an immediate Return is terminated without steps" (fun () ->
        let config =
          Config.make Store.empty [ Program.return (Value.Int 9) ]
        in
        Alcotest.(check bool) "terminal" true (Config.is_terminal config);
        Alcotest.check value "decision" (Value.Int 9)
          (decision_exn config 0));
  ]

let runner_tests =
  let two_writers () =
    let store, reg = Store.alloc Store.empty Register.model_bot in
    let writer i =
      let open Program.Syntax in
      let* () = Register.write reg (Value.Int i) in
      Register.read reg
    in
    (store, [ writer 1; writer 2 ])
  in
  [
    test "fixed schedule is deterministic" (fun () ->
        let store, programs = two_writers () in
        let r1 = run_fixed store ~programs ~schedule:[ 0; 0; 1; 1 ] in
        Alcotest.check value "P0 read its own write" (Value.Int 1)
          (decision_exn r1.Runner.final 0);
        Alcotest.check value "P1 read its own write" (Value.Int 2)
          (decision_exn r1.Runner.final 1));
    test "interleaved schedule overwrites" (fun () ->
        let store, programs = two_writers () in
        let r = run_fixed store ~programs ~schedule:[ 0; 1; 0; 1 ] in
        Alcotest.check value "P0 read P1's write" (Value.Int 2)
          (decision_exn r.Runner.final 0));
    test "random runs are reproducible per seed" (fun () ->
        let store, programs = two_writers () in
        let config = Config.make store programs in
        let t1 = (Runner.run (Runner.Random 42) config).Runner.trace in
        let t2 = (Runner.run (Runner.Random 42) config).Runner.trace in
        Alcotest.(check (list int)) "same schedule" (Trace.schedule t1)
          (Trace.schedule t2));
    test "priority scheduler runs solo first" (fun () ->
        let store, programs = two_writers () in
        let config = Config.make store programs in
        let r = Runner.run (Runner.Priority [ 1; 0 ]) config in
        Alcotest.(check (list int)) "P1 then P0" [ 1; 1; 0; 0 ]
          (Trace.schedule r.Runner.trace));
    test "max_steps stops early" (fun () ->
        let store, programs = two_writers () in
        let config = Config.make store programs in
        let r = Runner.run ~max_steps:1 Runner.Round_robin config in
        Alcotest.(check bool) "not completed" false r.Runner.completed);
    test "Only: starved processes are reported" (fun () ->
        let store, programs = two_writers () in
        let config = Config.make store programs in
        let r = Runner.run (Runner.Only [ 0 ]) config in
        Alcotest.(check bool) "not completed" false r.Runner.completed;
        Alcotest.(check (list int)) "P1 starved" [ 1 ] r.Runner.starved;
        Alcotest.check value "P0 still decided" (Value.Int 1)
          (decision_exn r.Runner.final 0));
    test "Only with full set starves nobody" (fun () ->
        let store, programs = two_writers () in
        let config = Config.make store programs in
        let r = Runner.run (Runner.Only [ 0; 1 ]) config in
        Alcotest.(check bool) "completed" true r.Runner.completed;
        Alcotest.(check (list int)) "nobody starved" [] r.Runner.starved);
    test "trace records intervals per process" (fun () ->
        let store, programs = two_writers () in
        let r = run_fixed store ~programs ~schedule:[ 0; 1; 1; 0 ] in
        let t = r.Runner.trace in
        Alcotest.(check (option int)) "P0 first step" (Some 0)
          (Trace.first_step t 0);
        Alcotest.(check (option int)) "P0 last step" (Some 3)
          (Trace.last_step t 0);
        Alcotest.(check (option int)) "P1 interval" (Some 1)
          (Trace.first_step t 1));
  ]

let explore_tests =
  [
    test "disjoint writers collapse to one terminal" (fun () ->
        let store, regs = Store.alloc_many Store.empty 3 Register.model_bot in
        let writer i =
          Program.map
            (fun _ -> Value.Unit)
            (Program.invoke (List.nth regs i) (Op.make "write" [ Value.Int i ]))
        in
        let config = Config.make store (List.init 3 writer) in
        let stats = Search.iter_terminals config ~f:(fun _ _ -> ()) in
        Alcotest.(check int) "one canonical terminal" 1 stats.Explore.terminals;
        Alcotest.(check bool) "dedup happened" true (stats.Explore.dedup_hits > 0));
    test "consensus object: exhaustive agreement for 3 procs" (fun () ->
        let store, c = Store.alloc Store.empty Consensus_obj.model in
        let programs =
          List.init 3 (fun i -> Consensus_obj.propose c (Value.Int i))
        in
        let config = Config.make store programs in
        let result =
          Search.check_terminals config ~ok:(fun c ->
              match Subc_tasks.Task.distinct (Config.decisions c) with
              | [ _ ] -> true
              | _ -> false)
        in
        Alcotest.(check bool) "all terminals agree" true (Result.is_ok result));
    test "nondeterministic objects branch" (fun () ->
        let store, sc =
          Store.alloc Store.empty
            (Subc_objects.Set_consensus_obj.model ~n:2 ~k:2)
        in
        let programs =
          List.init 2 (fun i ->
              Subc_objects.Set_consensus_obj.propose sc (Value.Int i))
        in
        let config = Config.make store programs in
        let terminals = ref [] in
        let _stats =
          Search.iter_terminals config ~f:(fun c _ ->
              terminals := Config.decisions c :: !terminals)
        in
        Alcotest.(check bool) "several outcomes" true
          (List.length (List.sort_uniq compare !terminals) > 1));
    test "find_cycle catches busy waiting" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let spinner =
          let open Program.Syntax in
          let rec spin () =
            let* () = Program.checkpoint (Value.Sym "spin") in
            let* v = Register.read reg in
            if Value.is_bot v then spin () else Program.return v
          in
          spin ()
        in
        let config = Config.make store [ spinner ] in
        let cycle, _ = Search.find_cycle config in
        Alcotest.(check bool) "cycle found" true (cycle <> None));
    test "find_cycle passes wait-free programs" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let program =
          let open Program.Syntax in
          let* () = Register.write reg (Value.Int 1) in
          Register.read reg
        in
        let config = Config.make store [ program; program ] in
        let cycle, stats = Search.find_cycle config in
        Alcotest.(check bool) "no cycle" true (cycle = None);
        Alcotest.(check bool) "not limited" false stats.Explore.limited);
    test "hang marks the process and the terminal" (fun () ->
        let store, w =
          Store.alloc Store.empty (Subc_objects.One_shot_wrn.model ~k:3)
        in
        let program =
          let open Program.Syntax in
          let* _ = Subc_objects.One_shot_wrn.wrn w 0 (Value.Int 1) in
          let* _ = Subc_objects.One_shot_wrn.wrn w 0 (Value.Int 2) in
          Program.return Value.Unit
        in
        let config = Config.make store [ program ] in
        let stats =
          Search.iter_terminals config ~f:(fun c _ ->
              Alcotest.(check bool) "hung" true (Config.any_hung c))
        in
        Alcotest.(check int) "one terminal" 1 stats.Explore.terminals;
        Alcotest.(check int) "hung terminal" 1 stats.Explore.hung_terminals);
    test "state limit reports limited" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let writer i =
          let open Program.Syntax in
          let* () = Register.write reg (Value.Int i) in
          let* () = Register.write reg (Value.Int (10 + i)) in
          Register.read reg
        in
        let config = Config.make store (List.init 3 writer) in
        let stats =
          Search.iter_terminals
            ~options:Search.(default |> with_max_states 5)
            config ~f:(fun _ _ -> ())
        in
        Alcotest.(check bool) "limited" true stats.Explore.limited);
    test "depth limit prunes the branch, not the search" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let writer i =
          let open Program.Syntax in
          let* () = Register.write reg (Value.Int i) in
          let* () = Register.write reg (Value.Int (10 + i)) in
          Register.read reg
        in
        let config = Config.make store (List.init 3 writer) in
        let max_depth = 2 in
        let stats =
          Search.iter_terminals
            ~options:Search.(default |> with_max_depth max_depth)
            config ~f:(fun _ _ -> ())
        in
        Alcotest.(check bool) "limited" true stats.Explore.limited;
        (* An abort-on-first-deep-branch search would visit at most
           max_depth + 1 configurations; branch-local pruning keeps
           exploring the siblings. *)
        Alcotest.(check bool) "explored beyond the first deep branch" true
          (stats.Explore.states > max_depth + 1));
  ]

let replay_tests =
  let harness () =
    let store, c = Store.alloc Store.empty Consensus_obj.model in
    let programs =
      List.init 3 (fun i -> Consensus_obj.propose c (Value.Int i))
    in
    Config.make store programs
  in
  [
    test "runner traces replay to the same final configuration" (fun () ->
        let config = harness () in
        let r = Runner.run (Runner.Random 5) config in
        match Replay.final config r.Runner.trace with
        | Ok final ->
          Alcotest.(check (list value)) "same decisions"
            (Config.decisions r.Runner.final)
            (Config.decisions final)
        | Error { at; reason } ->
          Alcotest.failf "replay failed at %d: %s" at reason);
    test "model-checker counterexample traces replay" (fun () ->
        let config = harness () in
        (* Find any terminal and replay its witness trace. *)
        let witness = ref None in
        let _ =
          Search.iter_terminals config ~f:(fun final trace ->
              if !witness = None then witness := Some (final, trace))
        in
        match !witness with
        | None -> Alcotest.fail "no terminal?"
        | Some (final, trace) -> (
          match Replay.final config trace with
          | Ok replayed ->
            Alcotest.(check (list value)) "same decisions"
              (Config.decisions final) (Config.decisions replayed)
          | Error { at; reason } ->
            Alcotest.failf "replay failed at %d: %s" at reason));
    test "tampered traces are rejected" (fun () ->
        let config = harness () in
        let r = Runner.run (Runner.Random 5) config in
        let tampered =
          List.map
            (function
              | Trace.Sched e ->
                Trace.Sched { e with Step.resp = Some (Value.Int 999) }
              | (Trace.Crash _ | Trace.Recover _) as ev -> ev)
            r.Runner.trace
        in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Replay.replay config tampered)));
    test "per-event configurations are produced in order" (fun () ->
        let config = harness () in
        let r = Runner.run Runner.Round_robin config in
        match Replay.replay config r.Runner.trace with
        | Ok configs ->
          Alcotest.(check int) "one per event"
            (Trace.length r.Runner.trace)
            (List.length configs)
        | Error _ -> Alcotest.fail "replay failed");
  ]

let suite =
  [
    ("sim.value", value_tests);
    ("sim.program", program_tests);
    ("sim.runner", runner_tests);
    ("sim.explore", explore_tests);
    ("sim.replay", replay_tests);
  ]
