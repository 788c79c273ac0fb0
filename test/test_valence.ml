(* The valence/critical-configuration engine (backing experiment E6). *)
open Subc_sim
open Helpers
module Valence = Subc_check.Valence
module Consensus_obj = Subc_objects.Consensus_obj

let consensus_protocol () =
  let store, c = Store.alloc Store.empty Consensus_obj.model in
  let programs =
    [ Consensus_obj.propose c (Value.Int 0); Consensus_obj.propose c (Value.Int 1) ]
  in
  (store, programs)

let broken_protocol () =
  (* Everyone decides its own input — maximally bivalent, always violating. *)
  let store, regs = Store.alloc_many Store.empty 2 Subc_objects.Register.model_bot in
  let programs =
    List.mapi
      (fun i h ->
        let open Program.Syntax in
        let* () = Subc_objects.Register.write h (Value.Int i) in
        Program.return (Value.Int i))
      regs
  in
  (store, programs)

let diverging_protocol () =
  let store, reg = Store.alloc Store.empty Subc_objects.Register.model_bot in
  let spin =
    let open Program.Syntax in
    let rec loop () =
      let* () = Program.checkpoint (Value.Sym "loop") in
      let* v = Subc_objects.Register.read reg in
      if Value.is_bot v then loop () else Program.return v
    in
    loop ()
  in
  let writer = Program.map (fun _ -> Value.Int 0) (Subc_objects.Register.read reg) in
  (store, [ spin; writer ])

let verdict_tests =
  [
    test "consensus object protocol solves consensus" (fun () ->
        let store, programs = consensus_protocol () in
        let config = Config.make store programs in
        match
          Valence.consensus_verdict config ~inputs:[ Value.Int 0; Value.Int 1 ]
        with
        | Verdict.Proved _ -> ()
        | v -> Alcotest.failf "unexpected verdict: %a" Verdict.pp_summary v);
    test "decide-own protocol violates agreement" (fun () ->
        let store, programs = broken_protocol () in
        let config = Config.make store programs in
        match
          Valence.consensus_verdict config ~inputs:[ Value.Int 0; Value.Int 1 ]
        with
        | Verdict.Refuted { reason; _ } ->
          Alcotest.(check bool) "agreement cited" true
            (String.length reason > 0)
        | v -> Alcotest.failf "unexpected verdict: %a" Verdict.pp_summary v);
    test "spinning protocol diverges" (fun () ->
        let store, programs = diverging_protocol () in
        let config = Config.make store programs in
        match
          Valence.consensus_verdict config ~inputs:[ Value.Int 0; Value.Int 0 ]
        with
        | Verdict.Refuted { reason; _ } ->
          Alcotest.(check bool) "divergence cited" true
            (String.length reason > 0)
        | v -> Alcotest.failf "unexpected verdict: %a" Verdict.pp_summary v);
  ]

let valence_tests =
  [
    test "initial configuration of consensus is bivalent" (fun () ->
        let store, programs = consensus_protocol () in
        let config = Config.make store programs in
        let vs = Valence.valence config in
        Alcotest.(check int) "two reachable decisions" 2 (List.length vs));
    test "after one propose the configuration is univalent" (fun () ->
        let store, programs = consensus_protocol () in
        let config = Config.make store programs in
        let succ, _ = List.hd (Step.step config 0) in
        Alcotest.(check (list value)) "P0's value decided" [ Value.Int 0 ]
          (Valence.valence succ));
    test "terminal valence is its decision set" (fun () ->
        let config = Config.make Store.empty [ Program.return (Value.Int 7) ] in
        Alcotest.(check (list value)) "singleton" [ Value.Int 7 ]
          (Valence.valence config));
  ]

let critical_tests =
  [
    test "the consensus object's critical configuration is initial" (fun () ->
        let store, programs = consensus_protocol () in
        let config = Config.make store programs in
        match Valence.find_critical config with
        | None | Some (Valence.Disagreement _) ->
          Alcotest.fail "expected a critical configuration"
        | Some (Valence.Critical crit) ->
          Alcotest.(check int) "critical at depth 0" 0 (Trace.length crit.Valence.trace);
          (* Lemma-38-style structure: all pending steps are univalent and
             both processes' steps go to the same object. *)
          List.iter
            (fun s ->
              Alcotest.(check int) "univalent successor" 1
                (List.length s.Valence.valence))
            crit.Valence.successors;
          let objs =
            Subc_tasks.Task.distinct
              (List.map (fun s -> Value.Int s.Valence.event.Step.obj)
                 crit.Valence.successors)
          in
          Alcotest.(check int) "all steps on one object" 1 (List.length objs));
    test "univalent start yields no critical configuration" (fun () ->
        let store, programs = consensus_protocol () in
        let config = Config.make store programs in
        let succ, _ = List.hd (Step.step config 0) in
        Alcotest.(check bool) "no critical" true
          (Valence.find_critical succ = None));
    test "a disagreeing terminal is an agreement violation, not critical"
      (fun () ->
        (* Decide-own after one write each: every bivalent configuration
           has a bivalent successor until both decide, so the descent ends
           at the terminal deciding 0 and 1. *)
        let store, regs =
          Store.alloc_many Store.empty 2 Subc_objects.Register.model_bot
        in
        let program me =
          Program.map
            (fun () -> Value.Int me)
            (Subc_objects.Register.write (List.nth regs me) (Value.Int me))
        in
        let config = Config.make store [ program 0; program 1 ] in
        match Valence.find_critical config with
        | Some (Valence.Disagreement { config = final; trace } as d) ->
          Alcotest.(check int) "after both steps" 2 (Trace.length trace);
          Alcotest.(check bool) "a terminal" true (Config.is_terminal final);
          Alcotest.(check string) "report"
            "agreement violated after 2 steps: a terminal decides 0 and 1"
            (List.hd
               (String.split_on_char '\n'
                  (Format.asprintf "%a" Valence.pp_descent d)))
        | Some (Valence.Critical _) ->
          Alcotest.fail "a terminal reported as critical"
        | None -> Alcotest.fail "expected a bivalent start");
    test "register-only attempt: critical configuration analysis runs"
      (fun () ->
        (* A natural-but-doomed register protocol: write own, read other,
           decide min seen — the checker shows it bivalent and violating. *)
        let store, regs =
          Store.alloc_many Store.empty 2 Subc_objects.Register.model_bot
        in
        let program me =
          let open Program.Syntax in
          let* () =
            Subc_objects.Register.write (List.nth regs me) (Value.Int me)
          in
          let* other = Subc_objects.Register.read (List.nth regs (1 - me)) in
          Program.return
            (if Value.is_bot other then Value.Int me
             else if Value.compare other (Value.Int me) < 0 then other
             else Value.Int me)
        in
        let config = Config.make store [ program 0; program 1 ] in
        (match
           Valence.consensus_verdict config ~inputs:[ Value.Int 0; Value.Int 1 ]
         with
        | Verdict.Refuted _ -> ()
        | v -> Alcotest.failf "unexpected verdict: %a" Verdict.pp_summary v));
  ]

let suite =
  [
    ("valence.verdicts", verdict_tests);
    ("valence.valence", valence_tests);
    ("valence.critical", critical_tests);
  ]
