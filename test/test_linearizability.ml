(* The history checker itself, on hand-crafted histories. *)
open Subc_sim
open Helpers
module Lin = Subc_check.Linearizability
module O = Subc_objects

let reg_spec = O.Register.model_bot
let w v = Op.make "write" [ Value.Int v ]
let r = Op.make "read" []

let record proc op result inv res =
  { Lin.proc; op; result = Some result; inv; res }

let incomplete proc op inv res = { Lin.proc; op; result = None; inv; res }

let linearizable h =
  Alcotest.(check bool) "linearizable" true (Lin.check ~spec:reg_spec h <> None)

let not_linearizable h =
  Alcotest.(check bool) "not linearizable" true (Lin.check ~spec:reg_spec h = None)

let register_histories =
  [
    test "sequential write then read" (fun () ->
        linearizable
          [ record 0 (w 1) Value.Unit 0 1; record 1 r (Value.Int 1) 2 3 ]);
    test "stale read after a completed write" (fun () ->
        not_linearizable
          [ record 0 (w 1) Value.Unit 0 1; record 1 r Value.Bot 2 3 ]);
    test "concurrent read may miss the write" (fun () ->
        linearizable
          [ record 0 (w 1) Value.Unit 0 3; record 1 r Value.Bot 1 2 ]);
    test "read of a never-written value" (fun () ->
        not_linearizable [ record 1 r (Value.Int 9) 0 1 ]);
    test "incomplete write can explain a read" (fun () ->
        linearizable
          [ incomplete 0 (w 5) 0 1; record 1 r (Value.Int 5) 2 3 ]);
    test "incomplete write may also not have happened" (fun () ->
        linearizable [ incomplete 0 (w 5) 0 1; record 1 r Value.Bot 2 3 ]);
    test "real-time order is respected across three ops" (fun () ->
        (* w(1) ends before w(2) starts; a later read must not see 1. *)
        not_linearizable
          [
            record 0 (w 1) Value.Unit 0 1;
            record 0 (w 2) Value.Unit 2 3;
            record 1 r (Value.Int 1) 4 5;
          ]);
    test "overlapping writes allow either read" (fun () ->
        let base read_val =
          [
            record 0 (w 1) Value.Unit 0 4;
            record 1 (w 2) Value.Unit 1 3;
            record 2 r (Value.Int read_val) 5 6;
          ]
        in
        linearizable (base 1);
        linearizable (base 2));
    test "empty history is linearizable" (fun () -> linearizable []);
  ]

(* The checker handles nondeterministic specifications: a set-consensus
   object may return either member of its set. *)
let nondet_spec_histories =
  let spec = O.Set_consensus_obj.model ~n:3 ~k:2 in
  let p v = Op.make "propose" [ Value.Int v ] in
  [
    test "first proposer echoes itself" (fun () ->
        Alcotest.(check bool) "ok" true
          (Lin.check ~spec [ record 0 (p 1) (Value.Int 1) 0 1 ] <> None));
    test "second proposer may adopt the first value" (fun () ->
        Alcotest.(check bool) "ok" true
          (Lin.check ~spec
             [
               record 0 (p 1) (Value.Int 1) 0 1;
               record 1 (p 2) (Value.Int 1) 2 3;
             ]
          <> None));
    test "second proposer cannot return an unseen value" (fun () ->
        Alcotest.(check bool) "rejected" true
          (Lin.check ~spec
             [
               record 0 (p 1) (Value.Int 1) 0 1;
               record 1 (p 2) (Value.Int 9) 2 3;
             ]
          = None));
    test "first proposer cannot adopt a later value" (fun () ->
        (* Sequential: p(1) completes before p(2) starts, yet returns 2. *)
        Alcotest.(check bool) "rejected" true
          (Lin.check ~spec
             [
               record 0 (p 1) (Value.Int 2) 0 1;
               record 1 (p 2) (Value.Int 2) 2 3;
             ]
          = None));
  ]

(* One-shot WRN specification (used by the Algorithm 5 experiments). *)
let wrn_histories =
  let spec = O.One_shot_wrn.model ~k:3 in
  let wrn i v = Op.make "wrn" [ Value.Int i; Value.Int v ] in
  [
    test "cyclic all-⊥ history is rejected" (fun () ->
        (* All three overlap and all return ⊥: every linearization makes the
           last op read its predecessor's write for some pair. *)
        Alcotest.(check bool) "rejected" true
          (Lin.check ~spec
             [
               record 0 (wrn 0 100) Value.Bot 0 10;
               record 1 (wrn 1 101) Value.Bot 1 11;
               record 2 (wrn 2 102) Value.Bot 2 12;
             ]
          = None));
    test "one reader of its successor is accepted" (fun () ->
        Alcotest.(check bool) "ok" true
          (Lin.check ~spec
             [
               record 0 (wrn 0 100) (Value.Int 101) 0 10;
               record 1 (wrn 1 101) Value.Bot 1 11;
               record 2 (wrn 2 102) Value.Bot 2 12;
             ]
          <> None));
    test "history builder extracts intervals from traces" (fun () ->
        let store, h = Store.alloc Store.empty (O.Wrn.model ~k:3) in
        let programs =
          [ O.Wrn.wrn h 0 (Value.Int 100); O.Wrn.wrn h 1 (Value.Int 101) ]
        in
        let result = run_fixed store ~programs ~schedule:[ 1; 0 ] in
        let ops = function
          | 0 -> Op.make "wrn" [ Value.Int 0; Value.Int 100 ]
          | _ -> Op.make "wrn" [ Value.Int 1; Value.Int 101 ]
        in
        let hist = Lin.history ~ops result.Runner.final result.Runner.trace in
        Alcotest.(check int) "two records" 2 (List.length hist);
        let r1 = List.find (fun x -> x.Lin.proc = 1) hist in
        Alcotest.(check int) "P1 ran first" 0 r1.Lin.inv);
  ]

(* Algorithm 5 at k=3 checked against recorded operations in which
   process 2 claims index 0 instead of 2: the history of every run that
   lets process 2 return a value contradicts the 1sWRN spec, so the
   check is refuted at one job and at four, stops at the first such
   history, well short of the whole space, and its witness replays to a
   terminal whose history does not linearize. *)
let refuted_harness_stops () =
  let h = alg5_harness 3 in
  let ops i =
    Op.make "wrn" [ Value.Int (if i = 2 then 0 else i); Value.Int (100 + i) ]
  in
  let spec = O.One_shot_wrn.model ~k:3 in
  let whole = Search.iter_terminals (root h) ~f:(fun _ _ -> ()) in
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "jobs=%d" jobs in
      let v =
        Lin.check_harness
          ~options:Search.(with_jobs jobs default)
          h.store ~programs:h.programs ~ops ~spec
      in
      let final = refutation_end (root h) v in
      Alcotest.(check bool)
        (name ^ " stopped early") true
        ((explore_stats_exn v).Explore.states < whole.Explore.states);
      Alcotest.(check bool)
        (name ^ " witness ends at a terminal") true (Config.is_terminal final);
      match v with
      | Verdict.Refuted { trace; _ } ->
        Alcotest.(check bool)
          (name ^ " witness history does not linearize") true
          (Lin.check ~spec (Lin.history ~ops final trace) = None)
      | _ -> assert false)
    [ 1; 4 ]

let suite =
  [
    ("linearizability.register", register_histories);
    ("linearizability.nondet-spec", nondet_spec_histories);
    ("linearizability.wrn-spec", wrn_histories);
    ( "linearizability.harness",
      [ test "a refuted harness stops at its witness" refuted_harness_stops ] );
  ]
