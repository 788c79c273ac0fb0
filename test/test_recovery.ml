(* The crash-recovery fault model end to end: the recoverable-consensus
   separation (Ovens-style — readable one-shot winners lose their power
   once a recovery is allowed, CAS and consensus objects keep it; the
   known-answer table E18 pins every cell, see test_experiments), the
   deterministic and randomized recovery adversaries with trace replay,
   and the budget plumbing (deadline truncation) on recovery state
   spaces.  The determinism matrix
   (test_determinism) checks the recoverable verdicts at every jobs
   count and visited table. *)
open Subc_sim
open Helpers
module Register = Subc_objects.Register
module Task = Subc_tasks.Task
module Task_check = Subc_check.Task_check
module Verdict = Subc_check.Verdict
module R = Subc_classic.Recoverable
module Cn = Subc_classic.Consensus_number

(* Domain count of the multi-domain side of each comparison. *)
let jobs = 4

let seeds n = List.init n (fun i -> (7919 * (i + 1)) + 13)

let recovery_config family ~n ~r =
  (root (recovery_harness family ~n ~r), List.init n (fun i -> Value.Int i))

(* ---------------------------------------------------------------- *)
(* The separation table.                                             *)

let status = function
  | Verdict.Proved _ -> `Proved
  | Verdict.Refuted _ -> `Refuted
  | Verdict.Limited _ -> `Limited

(* With no recovery allowed, the recoverable form of each protocol has
   the classic protocol's crash-stop verdict. *)
let no_recovery_is_classic () =
  List.iter
    (fun family ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: r=0 status = classic status"
           (Cn.family_name family))
        true
        (status (R.verdict family ~n:2 ~max_recoveries:0)
        = status (Cn.verdict family ~n:2)))
    R.all_families

(* The test-and-set refutation is genuinely recovery-driven: the
   counterexample trace contains a recovery, and replaying it (crashes and
   recoveries included) reproduces a terminal that violates consensus. *)
let tas_refutation_recovery_driven () =
  match R.verdict Cn.Test_and_set ~n:2 ~max_recoveries:1 with
  | Verdict.Proved _ | Verdict.Limited _ ->
    Alcotest.fail "test-and-set at r=1 should be refuted"
  | Verdict.Refuted { trace; _ } ->
    Alcotest.(check bool) "counterexample contains a recovery" true
      (Trace.recoveries trace <> []);
    let config, inputs = recovery_config Cn.Test_and_set ~n:2 ~r:1 in
    (match Replay.final config trace with
    | Error { at; reason } ->
      Alcotest.failf "counterexample does not replay at %d: %s" at reason
    | Ok final ->
      Alcotest.(check bool) "replayed terminal violates consensus" false
        ((not (Config.any_hung final))
        && Task.satisfies Task.consensus ~inputs final))

(* A mutated protocol is caught: a CAS protocol whose loser decides its
   own value instead of re-reading the committed cell breaks agreement —
   the checker refutes it where the canonical protocol is proved. *)
let mutated_cas_caught () =
  let open Program.Syntax in
  let n = 2 in
  let store, decs = Store.alloc_many Store.empty n Register.model_bot in
  let store, regs = Store.alloc_many store n Register.model_bot in
  let store, c = Store.alloc store Subc_objects.Cas_obj.model_bot in
  let programs =
    List.init n (fun me ->
        let v = Value.Int me in
        let* d0 = Register.read (List.nth decs me) in
        if not (Value.is_bot d0) then Program.return d0
        else
          let* () = Register.write (List.nth regs me) v in
          let* _ =
            Subc_objects.Cas_obj.compare_and_swap c ~expected:Value.Bot
              ~desired:v
          in
          (* The mutation: decide [v] without re-reading the cell. *)
          let* () = Register.write (List.nth decs me) v in
          Program.return v)
  in
  let inputs = List.init n (fun i -> Value.Int i) in
  match Task_check.check store ~programs ~inputs ~task:Task.consensus with
  | Verdict.Refuted _ -> ()
  | v ->
    Alcotest.failf "mutated CAS protocol not refuted: %s"
      (Verdict.status_string v)

(* ---------------------------------------------------------------- *)
(* Recovery adversaries: determinism, drain, replay.                 *)

let recover_after_deterministic () =
  let config, inputs = recovery_config Cn.Cas ~n:2 ~r:1 in
  let strategy =
    Runner.Recover_after
      { crashes = [ (1, 0) ]; recoveries = [ (3, 0) ]; seed = None }
  in
  let a = Runner.run strategy config and b = Runner.run strategy config in
  Alcotest.(check string) "identical trace"
    (Trace.to_string a.Runner.trace)
    (Trace.to_string b.Runner.trace);
  Alcotest.(check (list int)) "process 0 crashed" [ 0 ]
    (Trace.crashes a.Runner.trace);
  Alcotest.(check (list int)) "process 0 recovered" [ 0 ]
    (Trace.recoveries a.Runner.trace);
  Alcotest.(check (list int)) "nobody left crashed" []
    (Config.crashed a.Runner.final);
  Alcotest.(check bool) "CAS protocol still agrees" true
    (Task.satisfies Task.consensus ~inputs a.Runner.final);
  match Replay.final config a.Runner.trace with
  | Error { at; reason } ->
    Alcotest.failf "replay failed at %d: %s" at reason
  | Ok final ->
    Alcotest.(check bool) "replay reproduces decisions" true
      (Config.decisions final = Config.decisions a.Runner.final)

(* A recovery scheduled past the end of the run is drained, not lost. *)
let recover_after_drains () =
  let config, _ = recovery_config Cn.Cas ~n:2 ~r:1 in
  let strategy =
    Runner.Recover_after
      { crashes = [ (1, 0) ]; recoveries = [ (1000, 0) ]; seed = None }
  in
  let a = Runner.run strategy config in
  Alcotest.(check (list int)) "drained recovery happened" [ 0 ]
    (Trace.recoveries a.Runner.trace);
  Alcotest.(check (list int)) "nobody left crashed" []
    (Config.crashed a.Runner.final)

let recover_random_deterministic_and_replays () =
  let config, _ = recovery_config Cn.Cas ~n:3 ~r:2 in
  let recovered_runs = ref 0 in
  List.iter
    (fun seed ->
      let run () =
        Runner.run
          (Runner.Recover_random { seed; max_crashes = 2; max_recoveries = 2 })
          config
      in
      let a = run () and b = run () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: identical trace" seed)
        (Trace.to_string a.Runner.trace)
        (Trace.to_string b.Runner.trace);
      if Trace.recoveries a.Runner.trace <> [] then incr recovered_runs;
      match Replay.final config a.Runner.trace with
      | Error { at; reason } ->
        Alcotest.failf "seed %d: replay failed at %d: %s" seed at reason
      | Ok final ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: same decisions" seed)
          true
          (Config.decisions final = Config.decisions a.Runner.final);
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d: same crashed set" seed)
          (Config.crashed a.Runner.final)
          (Config.crashed final))
    (seeds 30);
  Alcotest.(check bool) "some runs contained recoveries" true
    (!recovered_runs > 0)

(* ---------------------------------------------------------------- *)
(* Budget plumbing on recovery state spaces.                         *)

(* An already-expired deadline truncates the search to Limited/Deadline
   instead of proving; the space (test-and-set, n=3, r=1: ~11k states) is
   big enough to guarantee the explorers reach a poll point. *)
let deadline_truncates () =
  let config, _ = recovery_config Cn.Test_and_set ~n:3 ~r:1 in
  let seq =
    Search.iter_terminals
      ~options:
        Search.(
          default |> with_max_crashes 2 |> with_max_recoveries 1
          |> with_deadline 0.0)
      config
      ~f:(fun _ _ -> ())
  in
  Alcotest.(check bool) "sequential: limited" true seq.Explore.limited;
  Alcotest.(check bool) "sequential: reason = deadline" true
    (seq.Explore.limit_reason = Explore.Deadline);
  let par =
    Search.iter_terminals
      ~options:
        Search.(
          default |> with_max_crashes 2
          |> with_max_recoveries 1 |> with_deadline 0.0 |> with_jobs jobs)
      config ~f:(fun _ _ -> ())
  in
  Alcotest.(check bool) "parallel: limited" true par.Explore.limited;
  Alcotest.(check bool) "parallel: reason = deadline" true
    (par.Explore.limit_reason = Explore.Deadline)

(* ---------------------------------------------------------------- *)
(* The recovery store transition is delta-encoded: slots whose
   projection is a fixed point — physically or structurally — keep
   their old state value, so [diff store (recover store)] lists exactly
   the slots a crash erased and a clean recovery diffs to [] without
   traversal.  This is what keeps the delta-encoded frontier's recovery
   links as small as its step links.                                 *)

let recovery_diff_lists_only_erased () =
  let persistent =
    Obj_model.deterministic ~kind:"preg" ~init:(Value.Int 0) (fun s _ ->
        (s, s))
  in
  let volatile = Obj_model.with_persist (fun _ -> Value.Int 0) persistent in
  let store, _hp = Store.alloc Store.empty persistent in
  let store, hv = Store.alloc store volatile in
  (* Untouched store: every projection is a structural fixed point
     (the volatile slot's projection rebuilds [Int 0]), so recovery
     must share physically and the diff must be empty. *)
  Alcotest.(check int) "clean recovery diff is empty" 0
    (List.length (Store.diff store (Store.recover store)));
  (* Dirty both slots: only the volatile one appears in the diff. *)
  let store = Store.set store _hp (Value.Int 7) in
  let store = Store.set store hv (Value.Int 9) in
  let recovered = Store.recover store in
  (match Store.diff store recovered with
  | [ (h, v) ] ->
    Alcotest.(check int)
      "erased slot is the volatile one"
      (hv :> int)
      (h :> int);
    Alcotest.check value "projected to the persistent component"
      (Value.Int 0) v
  | l -> Alcotest.failf "recovery diff has %d entries, want 1" (List.length l));
  (* Idempotence: re-recovering the recovered store is a no-op diff. *)
  Alcotest.(check int) "second recovery diff is empty" 0
    (List.length (Store.diff recovered (Store.recover recovered)))

let suite =
  [
    ( "recovery.separation",
      [
        test "recoverable at r=0 agrees with the classic verdict"
          no_recovery_is_classic;
        test "test-and-set refutation is recovery-driven"
          tas_refutation_recovery_driven;
        test "mutated CAS protocol is refuted" mutated_cas_caught;
      ] );
    ( "recovery.adversaries",
      [
        test "Recover_after is deterministic and replays"
          recover_after_deterministic;
        test "late recoveries are drained" recover_after_drains;
        test_slow "Recover_random is deterministic and replays"
          recover_random_deterministic_and_replays;
      ] );
    ( "recovery.budgets",
      [
        test "expired deadline truncates to Limited" deadline_truncates;
      ] );
    ( "recovery.store",
      [
        test "recovery diff lists only erased slots"
          recovery_diff_lists_only_erased;
      ] );
  ]
