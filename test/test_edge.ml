(* Edge cases and error paths across the whole stack. *)
open Subc_sim
open Helpers
module Register = Subc_objects.Register

let value_edges =
  [
    test "vec_set out of range raises" (fun () ->
        match Value.vec_set (Value.bot_vec 2) 5 Value.Unit with
        | exception Value.Type_error _ -> ()
        | _ -> Alcotest.fail "expected Type_error");
    test "vec_get on non-vector raises" (fun () ->
        match Value.vec_get (Value.Int 3) 0 with
        | exception Value.Type_error _ -> ()
        | _ -> Alcotest.fail "expected Type_error");
    test "pair/to_pair roundtrip" (fun () ->
        let a, b = Value.to_pair (Value.pair (Value.Int 1) Value.Bot) in
        Alcotest.check value "fst" (Value.Int 1) a;
        Alcotest.check value "snd" Value.Bot b);
    test "of_int_list builds an int vector" (fun () ->
        Alcotest.check value "vec"
          (Value.Vec [ Value.Int 1; Value.Int 2 ])
          (Value.of_int_list [ 1; 2 ]));
    test "tags print with and without payloads" (fun () ->
        Alcotest.(check string) "unit payload" "win"
          (Value.to_string (Value.Tag ("win", Value.Unit)));
        Alcotest.(check string) "int payload" "win(3)"
          (Value.to_string (Value.Tag ("win", Value.Int 3))));
    test "vec_length and is_bot" (fun () ->
        Alcotest.(check int) "length" 4 (Value.vec_length (Value.bot_vec 4));
        Alcotest.(check bool) "bot" true (Value.is_bot Value.Bot);
        Alcotest.(check bool) "not bot" false (Value.is_bot Value.Unit));
  ]

let op_edges =
  [
    test "arg out of range raises Invalid_argument" (fun () ->
        let op = Op.make "write" [ Value.Int 1 ] in
        Alcotest.check value "arg 0" (Value.Int 1) (Op.arg op 0);
        match Op.arg op 1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "to_string shows arguments" (fun () ->
        Alcotest.(check string) "zero-arg" "scan"
          (Op.to_string (Op.make "scan" []));
        Alcotest.(check string) "two-arg" "wrn(1, ⊥)"
          (Op.to_string (Op.make "wrn" [ Value.Int 1; Value.Bot ])));
  ]

let store_edges =
  [
    test "unknown handle raises" (fun () ->
        let _store, h = Store.alloc Store.empty Register.model_bot in
        (* Handles from another store are just ints; probing state of a
           never-allocated one must fail loudly. *)
        let empty = Store.empty in
        match Store.apply empty h (Op.make "read" []) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "alloc_many allocates in order" (fun () ->
        let store, hs = Store.alloc_many Store.empty 3 Register.model_bot in
        Alcotest.(check int) "three handles" 3 (List.length hs);
        Alcotest.(check int) "contents in handle order" 3
          (List.length (Store.contents store)));
    test "kind reports the object class" (fun () ->
        let store, h = Store.alloc Store.empty (Subc_objects.Wrn.model ~k:3) in
        Alcotest.(check string) "kind" "wrn(3)" (Store.kind store h));
  ]

let checkpoint_edges =
  [
    test "checkpoint resets the canonical history" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let with_ckpt =
          let open Program.Syntax in
          let* _ = Register.read reg in
          let* () = Program.checkpoint (Value.Sym "s") in
          Register.read reg
        in
        let config = Config.make store [ with_ckpt ] in
        (* After one step + checkpoint, the history is [Sym "s"], so two
           different read-counts lead to the same canonical key. *)
        let step1 = fst (List.hd (Step.step config 0)) in
        let again =
          let open Program.Syntax in
          let* () = Program.checkpoint (Value.Sym "s") in
          Register.read reg
        in
        let direct = Config.make store [ again ] in
        Alcotest.(check bool) "same canonical key" true
          (Value.equal (Config.key step1) (Config.key direct)));
    test "checkpoint composes under bind" (fun () ->
        let program =
          let open Program.Syntax in
          let* () = Program.checkpoint (Value.Int 1) in
          Program.return (Value.Int 5)
        in
        let config = Config.make Store.empty [ program ] in
        Alcotest.(check bool) "terminal immediately" true
          (Config.is_terminal config);
        Alcotest.check value "value" (Value.Int 5) (decision_exn config 0));
  ]

let runner_edges =
  [
    test "Only strategy crashes the others" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let writer v =
          let open Program.Syntax in
          let* () = Register.write reg (Value.Int v) in
          Register.read reg
        in
        let config = Config.make store [ writer 1; writer 2 ] in
        let r = Runner.run (Runner.Only [ 0 ]) config in
        Alcotest.(check bool) "P1 never ran" true
          (Trace.events_of r.Runner.trace 1 = []);
        Alcotest.(check bool) "not a terminal configuration" false
          r.Runner.completed;
        Alcotest.check value "P0 decided" (Value.Int 1)
          (decision_exn r.Runner.final 0));
    test "Only reports completed when everything terminates" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let config = Config.make store [ Register.read reg ] in
        let r = Runner.run (Runner.Only [ 0 ]) config in
        Alcotest.(check bool) "completed" true r.Runner.completed);
    test "Fixed entries for finished processes are skipped" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let config =
          Config.make store [ Register.read reg; Register.read reg ]
        in
        let r = run_fixed store ~programs:[ Register.read reg; Register.read reg ]
            ~schedule:[ 0; 0; 0; 1 ] in
        ignore config;
        Alcotest.(check bool) "completed" true r.Runner.completed);
    test "different seeds usually differ" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let writer v =
          let open Program.Syntax in
          let* () = Register.write reg (Value.Int v) in
          Register.read reg
        in
        let config = Config.make store (List.init 4 writer) in
        let schedules =
          List.map
            (fun seed -> Trace.schedule (Runner.run (Runner.Random seed) config).Runner.trace)
            (List.init 10 (fun i -> i))
        in
        Alcotest.(check bool) "at least two distinct schedules" true
          (List.length (List.sort_uniq compare schedules) > 1));
  ]

let explore_edges =
  [
    test "max_depth marks limited" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let program =
          Program.for_ 0 50 (fun i -> Register.write reg (Value.Int i))
          |> fun p -> Program.bind p (fun () -> Program.return Value.Unit)
        in
        let config = Config.make store [ program ] in
        let stats =
          Search.iter_terminals
            ~options:Search.(default |> with_max_depth 5)
            config ~f:(fun _ _ -> ())
        in
        Alcotest.(check bool) "limited" true stats.Explore.limited);
    test "check_terminals stops early" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let writer v =
          let open Program.Syntax in
          let* () = Register.write reg (Value.Int v) in
          Register.read reg
        in
        let config = Config.make store (List.init 3 writer) in
        let full = Search.iter_terminals config ~f:(fun _ _ -> ()) in
        match Search.check_terminals config ~ok:(fun _ -> false) with
        | Ok _ -> Alcotest.fail "no counterexample found"
        | Error (_, _, early) ->
          Alcotest.(check bool) "fewer states than full" true
            (early.Explore.states <= full.Explore.states));
    test "iter_terminals witness traces have terminal length" (fun () ->
        let store, reg = Store.alloc Store.empty Register.model_bot in
        let config = Config.make store [ Register.read reg ] in
        Search.iter_terminals config ~f:(fun _ trace ->
            Alcotest.(check int) "one step" 1 (Trace.length trace))
        |> fun stats -> Alcotest.(check int) "one terminal" 1 stats.Explore.terminals);
  ]

let hierarchy_edges =
  let module H = Subc_core.Hierarchy in
  [
    test "implementable requires k ≥ j" (fun () ->
        Alcotest.(check bool) "k < j impossible" false
          (H.implementable ~n:4 ~k:1 ~m:3 ~j:2));
    test "partition bound with remainder larger than j" (fun () ->
        (* n=5, m=3, j=1: one full group (1 value) + remainder 2 capped at
           j=1 → 2. *)
        Alcotest.(check int) "bound" 2 (H.partition_bound ~n:5 ~m:3 ~j:1));
    test "same-k does not separate" (fun () ->
        Alcotest.(check bool) "k=k'" false (H.separates ~k:3 ~k':3));
  ]

let object_edges =
  [
    test "every object rejects foreign operations" (fun () ->
        let models =
          [
            Subc_objects.Counter_obj.model;
            Subc_objects.Swap_obj.model_bot;
            Subc_objects.Tas_obj.model;
            Subc_objects.Faa_obj.model;
            Subc_objects.Cas_obj.model_bot;
            Subc_objects.Queue_obj.model [];
            Subc_objects.Consensus_obj.model;
            Subc_objects.Wrn.model ~k:3;
            Subc_objects.One_shot_wrn.model ~k:3;
            Subc_objects.Set_consensus_obj.model ~n:2 ~k:1;
            Subc_objects.Sse_obj.model ~k:3 ~j:2;
            Subc_objects.Snapshot_obj.model ~n:2;
          ]
        in
        List.iter
          (fun m ->
            match m.Obj_model.apply m.Obj_model.init (Op.make "nonsense" []) with
            | exception Obj_model.Bad_op _ -> ()
            | _ -> Alcotest.failf "%s accepted nonsense" m.Obj_model.kind)
          models);
    test "SSE with j winners full defers forever after" (fun () ->
        let m = Subc_objects.Sse_obj.model ~k:4 ~j:1 in
        let state, r0 =
          match m.Obj_model.apply m.Obj_model.init (Op.make "propose" [ Value.Int 2 ]) with
          | [ x ] -> x
          | _ -> Alcotest.fail "first deterministic"
        in
        Alcotest.check value "first wins" (Value.Int 2) r0;
        List.iter
          (fun i ->
            List.iter
              (fun (_, resp) ->
                Alcotest.check value "defers to the unique king" (Value.Int 2) resp)
              (m.Obj_model.apply state (Op.make "propose" [ Value.Int i ])))
          [ 0; 1; 3 ]);
    test "queue roundtrip through a program" (fun () ->
        let store, q = Store.alloc Store.empty (Subc_objects.Queue_obj.model []) in
        let program =
          let open Program.Syntax in
          let* () = Subc_objects.Queue_obj.enqueue q (Value.Int 1) in
          let* a = Subc_objects.Queue_obj.dequeue q in
          let* b = Subc_objects.Queue_obj.dequeue q in
          Program.return (Value.Pair (a, b))
        in
        let r = run_fixed store ~programs:[ program ] ~schedule:[] in
        Alcotest.check value "fifo then empty"
          (Value.Pair (Value.Int 1, Value.Bot))
          (decision_exn r.Runner.final 0));
  ]

let task_edges =
  let module Task = Subc_tasks.Task in
  [
    test "conj composes names" (fun () ->
        let t = Task.conj Task.consensus Task.all_decided in
        Alcotest.(check bool) "mentions both" true
          (String.length t.Task.name > String.length "consensus"));
    test "set_election names include k" (fun () ->
        Alcotest.(check string) "name" "2-set-election"
          (Task.set_election 2).Task.name);
    test "empty outcome list satisfies everything" (fun () ->
        List.iter
          (fun t -> Alcotest.(check bool) t.Task.name true (Result.is_ok (t.Task.check [])))
          [ Task.consensus; Task.set_consensus 2; Task.strong_set_election 2;
            Task.renaming ~bound:3; Task.all_decided ]);
  ]

let suite =
  [
    ("edge.value", value_edges);
    ("edge.op", op_edges);
    ("edge.store", store_edges);
    ("edge.checkpoint", checkpoint_edges);
    ("edge.runner", runner_edges);
    ("edge.explore", explore_edges);
    ("edge.hierarchy", hierarchy_edges);
    ("edge.objects", object_edges);
    ("edge.tasks", task_edges);
  ]
