(* The classical hierarchy around the paper's band (experiments E2, E6). *)
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

(* E2: the register-only baseline can be driven to k distinct decisions,
   while one WRN_k object caps them at k−1 on every schedule (tested in
   test_alg2).  Together: the register gap. *)
let rw_baseline_tests =
  [
    test "register baseline reaches k distinct decisions (k=3)" (fun () ->
        let k = 3 in
        let store, t = Rw.alloc Store.empty ~k in
        let inputs = inputs k in
        let programs = List.mapi (fun i v -> Rw.propose t ~i v) inputs in
        let config = Config.make store programs in
        let found, _ =
          Search.find_terminal config ~violates:(fun final ->
              List.length (Task.distinct (Config.decisions final)) = k)
        in
        Alcotest.(check bool) "k distinct decisions reachable" true
          (found <> None));
    test "register baseline is still valid and wait-free" (fun () ->
        let k = 3 in
        let store, t = Rw.alloc Store.empty ~k in
        let inputs = inputs k in
        let programs = List.mapi (fun i v -> Rw.propose t ~i v) inputs in
        let task = Task.conj (Task.set_consensus k) Task.all_decided in
        ignore (check_exhaustive store ~programs ~inputs ~task));
  ]

(* E6: every natural 2-consensus attempt on WRN_k (k ≥ 3) fails; the same
   shapes succeed on WRN_2. *)
let attempt_config ~k ~style =
  let store, t = Attempts.alloc Store.empty ~k ~style in
  Config.make store
    [ Attempts.propose t ~me:0 (Value.Int 0); Attempts.propose t ~me:1 (Value.Int 1) ]

let attempt_verdict ~k ~style =
  Valence.consensus_verdict (attempt_config ~k ~style)
    ~inputs:[ Value.Int 0; Value.Int 1 ]

let expect_violation_verdict ~k ~style () =
  match attempt_verdict ~k ~style with
  | Verdict.Refuted _ -> ()
  | v -> Alcotest.failf "expected Refuted, got %a" Verdict.pp_summary v

let wrn_attempt_tests =
  [
    test "mirror of Algorithm 2 fails on WRN₃"
      (expect_violation_verdict ~k:3 ~style:Attempts.Mirror_alg2);
    test "mirror of Algorithm 2 fails on WRN₄"
      (expect_violation_verdict ~k:4 ~style:Attempts.Mirror_alg2);
    test "same-index attempt fails on WRN₃"
      (expect_violation_verdict ~k:3 ~style:Attempts.Same_index);
    test "announce+adjacent attempt fails on WRN₃"
      (expect_violation_verdict ~k:3 ~style:Attempts.Adjacent_announce);
    test "busy-wait attempt diverges on WRN₃" (fun () ->
        (* The refutation is a lasso: it replays to a configuration where
           a process still runs, and which the schedule already passed. *)
        let config = attempt_config ~k:3 ~style:Attempts.Busy_wait in
        match attempt_verdict ~k:3 ~style:Attempts.Busy_wait with
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
    test "the same mirror shape SOLVES consensus on WRN₂" (fun () ->
        match attempt_verdict ~k:2 ~style:Attempts.Mirror_alg2 with
        | Verdict.Proved _ -> ()
        | v -> Alcotest.failf "expected Proved, got %a" Verdict.pp_summary v);
    test "announce+adjacent also solves on WRN₂" (fun () ->
        match attempt_verdict ~k:2 ~style:Attempts.Adjacent_announce with
        | Verdict.Proved _ -> ()
        | v -> Alcotest.failf "expected Proved, got %a" Verdict.pp_summary v);
  ]

(* E9: the S2 strong-set-election object cannot solve 2-process consensus
   via the natural protocol shapes (its guarantees are sub-consensus). *)
let sse_weakness_tests =
  [
    test "SSE object: win/lose protocol fails 2-consensus" (fun () ->
        let k = 3 in
        let store, h =
          Store.alloc Store.empty (Subc_objects.Sse_obj.model ~k ~j:(k - 1))
        in
        let store, regs =
          Store.alloc_many store 2 Subc_objects.Register.model_bot
        in
        let program me v =
          let open Program.Syntax in
          let* () = Subc_objects.Register.write (List.nth regs me) v in
          let* w = Subc_objects.Sse_obj.propose h me in
          if w = me then Program.return v
          else Subc_objects.Register.read (List.nth regs (1 - me))
        in
        let config =
          Config.make store [ program 0 (Value.Int 0); program 1 (Value.Int 1) ]
        in
        match
          Valence.consensus_verdict config ~inputs:[ Value.Int 0; Value.Int 1 ]
        with
        | Verdict.Refuted _ -> ()
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

(* E12: the consensus-number table. *)
let consensus_number_tests =
  (* A failure must be a terminal violation, not a divergence: the
     witness replays to a terminal configuration. *)
  let expect family ~n solves () =
    let v = Cn.verdict family ~n in
    if solves then
      Alcotest.(check bool)
        (Format.asprintf "%s at n=%d: %a" (Cn.family_name family) n
           Verdict.pp_summary v)
        true (Verdict.is_proved v)
    else
      let store, programs =
        Cn.protocol Store.empty family ~inputs:(List.init n (fun i -> Value.Int i))
      in
      Alcotest.(check bool)
        (Cn.family_name family ^ ": refuted at a terminal")
        true
        (Config.is_terminal (refutation_end (Config.make store programs) v))
  in
  [
    test "registers fail at n=2" (expect Cn.Register ~n:2 false);
    test "WRN₃ fails at n=2" (expect (Cn.Wrn 3) ~n:2 false);
    test "WRN₂ solves n=2" (expect (Cn.Wrn 2) ~n:2 true);
    test "WRN₂ fails at n=3" (expect (Cn.Wrn 2) ~n:3 false);
    test "swap solves n=2" (expect Cn.Swap ~n:2 true);
    test "swap's canonical protocol fails at n=3" (expect Cn.Swap ~n:3 false);
    test "test-and-set solves n=2" (expect Cn.Test_and_set ~n:2 true);
    test "test-and-set fails at n=3" (expect Cn.Test_and_set ~n:3 false);
    test "fetch-and-add solves n=2" (expect Cn.Fetch_and_add ~n:2 true);
    test "fetch-and-add fails at n=3" (expect Cn.Fetch_and_add ~n:3 false);
    test "queue solves n=2" (expect Cn.Queue ~n:2 true);
    test "queue fails at n=3" (expect Cn.Queue ~n:3 false);
    test "CAS solves n=3" (expect Cn.Cas ~n:3 true);
    test "consensus object solves n=3" (expect Cn.Consensus_object ~n:3 true);
    test "SSE object fails at n=2" (expect (Cn.Strong_set_election 3) ~n:2 false);
  ]

(* E14: exhaustive protocol-space refutation. *)
let protocol_search_tests =
  let module Ps = Subc_classic.Protocol_search in
  [
    test "class sizes" (fun () ->
        Alcotest.(check int) "k=3 ops=1" 144
          (List.length (Ps.enumerate ~k:3 ~ops:1));
        Alcotest.(check int) "k=2 ops=1" 64
          (List.length (Ps.enumerate ~k:2 ~ops:1)));
    test "k=2, 1 op: the class contains solvers (swap protocol)" (fun () ->
        let c = Ps.census ~k:2 ~ops:1 () in
        Alcotest.(check bool) "some solver" true (c.Ps.solving > 0);
        Alcotest.(check bool) "an example is reported" true
          (c.Ps.example_solver <> None));
    test "k=3, 1 op: no protocol in the class solves consensus" (fun () ->
        let c = Ps.census ~k:3 ~ops:1 () in
        Alcotest.(check int) "zero solvers out of 144" 0 c.Ps.solving);
    test "k=4, 1 op: no protocol in the class solves consensus" (fun () ->
        let c = Ps.census ~k:4 ~ops:1 () in
        Alcotest.(check int) "zero solvers" 0 c.Ps.solving);
    test_slow "k=2, 2 ops: solvers still exist" (fun () ->
        let c = Ps.census ~k:2 ~ops:2 () in
        Alcotest.(check bool) "some solver" true (c.Ps.solving > 0));
    test_slow "k=3, 2 ops: still no solver (Lemma 38, exhaustively)"
      (fun () ->
        let c = Ps.census ~k:3 ~ops:2 () in
        Alcotest.(check int)
          (Printf.sprintf "zero solvers out of %d" c.Ps.total)
          0 c.Ps.solving);
  ]

let suite =
  [
    ("classic.two-consensus", two_consensus_tests);
    ("classic.tournament", tournament_tests);
    ("classic.universal", universal_tests);
    ("classic.consensus-number", consensus_number_tests);
    ("classic.protocol-search", protocol_search_tests);
    ("classic.n-consensus", n_consensus_tests);
    ("classic.groups", group_tests);
    ("classic.rw-baseline", rw_baseline_tests);
    ("classic.wrn-attempts", wrn_attempt_tests);
    ("classic.sse-weakness", sse_weakness_tests);
  ]
