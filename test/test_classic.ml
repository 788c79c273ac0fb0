(* The classical hierarchy around the paper's band.  The known-answer
   tables E2, E6, E9, E12 and E14 pin their verdicts row by row
   (test_experiments); these are the checks no row makes. *)
open Subc_sim
open Helpers
module Cn = Subc_classic.Consensus_number
module Rw = Subc_classic.Rw_baseline
module Attempts = Subc_classic.Wrn_attempts
module Valence = Subc_check.Valence
module Task = Subc_tasks.Task

let check_two_consensus family () =
  List.iter
    (fun (v0, v1) ->
      let inputs = [ v0; v1 ] in
      let store, programs = Cn.protocol Store.empty family ~inputs in
      let config = Config.make store programs in
      match Valence.consensus_verdict config ~inputs with
      | Verdict.Proved _ -> ()
      | v ->
        Alcotest.failf "2-consensus failed on (%a,%a): %a" Value.pp v0 Value.pp
          v1 Verdict.pp_summary v)
    [ (Value.Int 0, Value.Int 1); (Value.Int 1, Value.Int 0);
      (Value.Int 5, Value.Int 5) ]

let two_consensus_tests =
  [
    test "swap solves 2-consensus (exhaustive)" (check_two_consensus Cn.Swap);
    test "WRN₂ solves 2-consensus (exhaustive)" (check_two_consensus (Cn.Wrn 2));
    test "test-and-set solves 2-consensus (exhaustive)"
      (check_two_consensus Cn.Test_and_set);
    test "queue solves 2-consensus (exhaustive)" (check_two_consensus Cn.Queue);
  ]

let check_consensus family ~n () =
  let inputs = inputs n in
  let store, programs = Cn.protocol Store.empty family ~inputs in
  let task = Task.conj Task.consensus Task.all_decided in
  ignore (check_exhaustive store ~programs ~inputs ~task)

let n_consensus_tests =
  [
    test "CAS solves 3-process consensus (exhaustive)"
      (check_consensus Cn.Cas ~n:3);
    test "consensus object solves 4-process consensus (exhaustive)"
      (check_consensus Cn.Consensus_object ~n:4);
  ]

let group_tests =
  [
    test "2 consensus groups give 2-set consensus for 4 (exhaustive)" (fun () ->
        let inputs = inputs 4 in
        let store, programs =
          Cn.grouped Store.empty Cn.Consensus_object ~size:2 ~inputs
        in
        let task = Task.conj (Task.set_consensus 2) Task.all_decided in
        ignore (check_exhaustive store ~programs ~inputs ~task));
  ]

(* The register-only baseline of E2 (whose row pins that it can be driven
   to k distinct decisions) still satisfies k-set consensus. *)
let rw_baseline_tests =
  [
    test "register baseline is still valid and wait-free" (fun () ->
        let k = 3 in
        let store, t = Rw.alloc Store.empty ~k in
        let inputs = inputs k in
        let programs = List.mapi (fun i v -> Rw.propose t ~i v) inputs in
        let task = Task.conj (Task.set_consensus k) Task.all_decided in
        ignore (check_exhaustive store ~programs ~inputs ~task));
  ]

(* E6's busy-wait attempt diverges on WRN_k (k ≥ 3); its row pins the
   verdict, this test the shape of the lasso. *)
let wrn_attempt_tests =
  [
    test "busy-wait attempt diverges on WRN₃" (fun () ->
        (* The refutation is a lasso: it replays to a configuration where
           a process still runs, and which the schedule already passed. *)
        let store, t = Attempts.alloc Store.empty ~k:3 ~style:Attempts.Busy_wait in
        let config =
          Config.make store
            [ Attempts.propose t ~me:0 (Value.Int 0);
              Attempts.propose t ~me:1 (Value.Int 1) ]
        in
        match
          Valence.consensus_verdict config ~inputs:[ Value.Int 0; Value.Int 1 ]
        with
        | Verdict.Refuted { trace; _ } -> (
          match List.rev (config :: Result.get_ok (Replay.replay config trace)) with
          | final :: earlier ->
            Alcotest.(check bool) "a process still runs" true
              (Config.running final <> []);
            Alcotest.(check bool) "the lasso closes on an earlier configuration"
              true
              (List.exists
                 (fun c -> Value.equal (Config.key c) (Config.key final))
                 earlier)
          | [] -> assert false)
        | v -> Alcotest.failf "expected Refuted, got %a" Verdict.pp_summary v);
  ]

(* Tournament leader election from consensus objects (Common2-style). *)
let tournament_tests =
  let winners final n =
    List.length
      (List.filter
         (fun i -> Config.decision final i = Some (Value.Bool true))
         (List.init n Fun.id))
  in
  [
    test "exactly one winner (n=3, exhaustive)" (fun () ->
        let n = 3 in
        let store, t = Subc_classic.Tournament.alloc Store.empty ~n in
        let programs =
          List.init n (fun me ->
              Program.map
                (fun w -> Value.Bool w)
                (Subc_classic.Tournament.play t ~me))
        in
        let config = Config.make store programs in
        let result =
          Search.check_terminals config ~ok:(fun final -> winners final n = 1)
        in
        Alcotest.(check bool) "one winner on every schedule" true
          (Result.is_ok result));
    test "exactly one winner (n=4, exhaustive)" (fun () ->
        let n = 4 in
        let store, t = Subc_classic.Tournament.alloc Store.empty ~n in
        let programs =
          List.init n (fun me ->
              Program.map
                (fun w -> Value.Bool w)
                (Subc_classic.Tournament.play t ~me))
        in
        let config = Config.make store programs in
        let result =
          Search.check_terminals config ~ok:(fun final -> winners final n = 1)
        in
        Alcotest.(check bool) "one winner on every schedule" true
          (Result.is_ok result));
    test "a solo player wins; latecomers lose" (fun () ->
        let n = 3 in
        let store, t = Subc_classic.Tournament.alloc Store.empty ~n in
        let programs =
          List.init n (fun me ->
              Program.map
                (fun w -> Value.Bool w)
                (Subc_classic.Tournament.play t ~me))
        in
        let r =
          run_fixed store ~programs
            ~schedule:(List.concat [ List.init 4 (fun _ -> 1); [ 0; 0; 0; 2; 2; 2 ] ])
        in
        Alcotest.check value "P1 won" (Value.Bool true)
          (decision_exn r.Runner.final 1);
        Alcotest.check value "P0 lost" (Value.Bool false)
          (decision_exn r.Runner.final 0));
  ]

(* Herlihy's universal construction: a queue from consensus objects refines
   the primitive queue. *)
let universal_tests =
  let queue_spec = Subc_objects.Queue_obj.model [ Value.Int 0 ] in
  [
    test "universal queue refines the primitive queue (2 procs, exhaustive)"
      (fun () ->
        let ops =
          [ Op.make "deq" []; Op.make "enq" [ Value.Int 7 ] ]
        in
        (* Universal implementation. *)
        let store_u, u =
          Subc_classic.Universal.alloc Store.empty ~n:2 ~spec:queue_spec
        in
        let impl =
          {
            Subc_check.Refinement.store = store_u;
            programs =
              List.mapi (fun me op -> Subc_classic.Universal.perform u ~me op) ops;
          }
        in
        (* Primitive object. *)
        let store_p, q = Store.alloc Store.empty queue_spec in
        let spec =
          {
            Subc_check.Refinement.store = store_p;
            programs = List.map (fun op -> Program.invoke q op) ops;
          }
        in
        expect_refines ~impl ~spec);
    test "universal counter: sequential responses" (fun () ->
        let store, u =
          Subc_classic.Universal.alloc Store.empty ~n:3
            ~spec:Subc_objects.Counter_obj.model
        in
        let programs =
          [
            Subc_classic.Universal.perform u ~me:0 (Op.make "inc" []);
            Subc_classic.Universal.perform u ~me:1 (Op.make "inc" []);
            Subc_classic.Universal.perform u ~me:2 (Op.make "read" []);
          ]
        in
        let r =
          run_fixed store ~programs
            ~schedule:(List.concat [ List.init 5 (fun _ -> 0); List.init 5 (fun _ -> 1); List.init 5 (fun _ -> 2) ])
        in
        Alcotest.check value "read sees both incs" (Value.Int 2)
          (decision_exn r.Runner.final 2));
    test "universal construction is wait-free (3 procs)" (fun () ->
        let store, u =
          Subc_classic.Universal.alloc Store.empty ~n:3
            ~spec:Subc_objects.Counter_obj.model
        in
        let programs =
          List.init 3 (fun me ->
              Subc_classic.Universal.perform u ~me (Op.make "inc" []))
        in
        ignore (check_wait_free store ~programs));
  ]

let suite =
  [
    ("classic.two-consensus", two_consensus_tests);
    ("classic.tournament", tournament_tests);
    ("classic.universal", universal_tests);
    ("classic.n-consensus", n_consensus_tests);
    ("classic.groups", group_tests);
    ("classic.rw-baseline", rw_baseline_tests);
    ("classic.wrn-attempts", wrn_attempt_tests);
  ]
