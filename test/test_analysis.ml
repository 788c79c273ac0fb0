(* The mechanized soundness analyzer (lib/analysis): the registry gate,
   seeded-mutation negative tests, and the certificate mint. *)
open Subc_sim
open Helpers
module Analyzer = Subc_analysis.Analyzer
module Subject = Subc_analysis.Subject
module Reach = Subc_analysis.Reach
module Commute = Subc_analysis.Commute
module Equivariance = Subc_analysis.Equivariance
module Classify = Subc_analysis.Classify
module Registry = Subc_analysis.Registry
module O = Subc_objects

let op = Op.make

let finding_of check findings =
  match List.find_opt (fun f -> f.Analyzer.check = check) findings with
  | Some f -> f
  | None -> Alcotest.failf "no %s finding" check

(* --- the CI gate: every registry family must come back fully proved --- *)

let registry_tests =
  List.map
    (fun entry ->
      test
        (Printf.sprintf "family %s is fully proved" entry.Registry.family)
        (fun () ->
          let findings =
            Analyzer.analyze ~family:entry.Registry.family
              entry.Registry.subjects
          in
          List.iter
            (fun f ->
              if not (Verdict.is_proved f.Analyzer.verdict) then
                Alcotest.failf "%s: %a" (Analyzer.finding_name f)
                  Verdict.pp_summary f.Analyzer.verdict)
            findings;
          Alcotest.(check int) "combined exit 0" 0
            (Analyzer.exit_code findings)))
    (Registry.entries ())

(* An object class: its kind without the sizes in parentheses.  A
   certificate covers the classes of its subjects at their small sizes. *)
let object_class kind = List.hd (String.split_on_char '(' kind)

(* Every object class a family's instance stores, at the CLI's default
   size (k = 3, n = 2k), is the class of one of the family's subjects:
   the certificate [--certified] demands covers what the checkers run. *)
let subjects_cover_instances =
  test "every class a family's instance stores is certified" (fun () ->
      List.iter
        (fun (e : Registry.entry) ->
          let certified =
            List.map
              (fun (s : Subject.t) -> object_class s.Subject.model.Obj_model.kind)
              e.Registry.subjects
          in
          Option.iter
            (fun build ->
              List.iter
                (fun kind ->
                  if not (List.mem (object_class kind) certified) then
                    Alcotest.failf "%s stores %s, which no subject certifies"
                      e.Registry.family kind)
                (Store.kinds (build ~n:6 ~k:3 ~crashes:0).store))
            e.Registry.harness)
        (Registry.entries ()))

(* --- seeded mutations: each soundness bug yields a Refuted witness --- *)

(* An apply that consults hidden mutable state: the purity check must
   catch it (the explorer's memoization would silently diverge). *)
let impure_subject () =
  let hidden = ref 0 in
  let model =
    Obj_model.nondet ~kind:"impure-tick" ~init:Value.Bot (fun st _op ->
        incr hidden;
        [ (st, Value.Int !hidden) ])
  in
  Subject.make ~name:"impure" ~model ~alphabet:[ op "tick" [] ]
    ~expected:Subject.Deterministic ()

(* An alphabet op the model does not support: totality refuted. *)
let unsupported_subject () =
  Subject.make ~name:"oversteps" ~model:O.Register.model_bot
    ~alphabet:[ op "read" []; op "cas" [ Value.Bot; tok 0 ] ]
    ~expected:Subject.Deterministic ()

(* Register writes do NOT commute, but the declared judgment says they
   do: the commutation census must surface a concrete race. *)
let lying_independence () =
  Subject.make ~name:"lying-writes" ~model:O.Register.model_bot
    ~alphabet:[ op "write" [ tok 0 ]; op "write" [ tok 1 ] ]
    ~expected:Subject.Deterministic
    ~independence:(Subject.Declared (fun _ _ -> true))
    ()

(* A declared-independent pair where one side hangs: anti-conservative
   for the source sets unless the census preserves hangs. *)
let lying_hang_independence () =
  Subject.make ~name:"lying-hang"
    ~model:(O.One_shot_wrn.model ~k:2)
    ~alphabet:[ op "wrn" [ Value.Int 0; tok 0 ]; op "wrn" [ Value.Int 1; tok 1 ] ]
    ~expected:Subject.Deterministic ~may_hang:true
    ~independence:(Subject.Declared (fun _ _ -> true))
    ()

(* WRN's ring reads are rotation-equivariant but NOT equivariant under
   the full symmetric group: transpositions break adjacency. *)
let wrong_group () =
  let k = 3 in
  let alphabet =
    List.concat_map
      (fun i ->
        List.map (fun j -> op "wrn" [ Value.Int i; tok j ]) (List.init k Fun.id))
      (List.init k Fun.id)
  in
  Subject.make ~name:"wrn-under-full"
    ~model:(O.Wrn.model ~k)
    ~alphabet ~expected:Subject.Deterministic
    ~symmetry:(Symmetry.standard ~n:k ~input_base:100 `Full) ()

(* (3,2)-set consensus branches; declaring it deterministic must lint. *)
let misdeclared_det () =
  Subject.make ~name:"setcons-as-det"
    ~model:(O.Set_consensus_obj.model ~n:3 ~k:2)
    ~alphabet:(List.map (fun i -> op "propose" [ tok i ]) [ 0; 1; 2 ])
    ~expected:Subject.Deterministic ~may_hang:true ()

(* 1sWRN hangs on reuse; omitting may_hang must lint. *)
let misdeclared_total () =
  Subject.make ~name:"1swrn-as-total"
    ~model:(O.One_shot_wrn.model ~k:2)
    ~alphabet:[ op "wrn" [ Value.Int 0; tok 0 ]; op "wrn" [ Value.Int 1; tok 1 ] ]
    ~expected:Subject.Deterministic ()

(* A register declared nondeterministic: the spurious-declaration lint
   fires (the space is closed and exhaustive). *)
let misdeclared_nondet () =
  Subject.make ~name:"register-as-nondet" ~model:O.Register.model_bot
    ~alphabet:[ op "read" []; op "write" [ tok 0 ] ]
    ~expected:Subject.Nondeterministic ()

(* A register that silently drops writes of one token: the claimed
   value-obliviousness fails under the token swap. *)
let value_dependent () =
  let model =
    Obj_model.deterministic ~kind:"biased-register" ~init:Value.Bot
      (fun st o ->
        match (o.Op.name, o.Op.args) with
        | "read", [] -> (st, st)
        | "write", [ v ] ->
          if Value.equal v (tok 1) then (st, Value.Unit) else (v, Value.Unit)
        | _ -> Obj_model.bad_op "biased-register" o)
  in
  Subject.make ~name:"biased-register" ~model
    ~alphabet:[ op "read" []; op "write" [ tok 0 ]; op "write" [ tok 1 ] ]
    ~expected:Subject.Deterministic ~value_oblivious:true
    ~values:[ tok 0; tok 1 ] ()

let expect_refuted ~check subject =
  let findings = Analyzer.analyze_subject subject in
  let f = finding_of check findings in
  match f.Analyzer.verdict with
  | Verdict.Refuted { reason; _ } -> reason
  | v ->
    Alcotest.failf "expected %s refuted, got %a" check Verdict.pp_summary v

let negative_tests =
  [
    test "impure apply refutes reachability" (fun () ->
        let reason = expect_refuted ~check:"reachability" (impure_subject ()) in
        Alcotest.(check bool) "mentions purity" true
          (String.length reason > 0);
        (* Dependent checks must not run on a broken space. *)
        let findings = Analyzer.analyze_subject (impure_subject ()) in
        List.iter
          (fun c ->
            let f = finding_of c findings in
            Alcotest.(check bool) (c ^ " skipped") true
              (Verdict.is_limited f.Analyzer.verdict))
          [ "commutation"; "equivariance"; "classification" ]);
    test "alphabet overstepping the model refutes reachability" (fun () ->
        ignore (expect_refuted ~check:"reachability" (unsupported_subject ())));
    test "a false independence declaration yields a race witness" (fun () ->
        let s = lying_independence () in
        let space =
          match Reach.enumerate s with
          | Ok sp -> sp
          | Error flaw -> Alcotest.failf "reach: %a" Reach.pp_flaw flaw
        in
        (match Commute.check s space with
        | Error race ->
          Alcotest.(check bool) "distinct orders" true (race.Commute.ab <> race.Commute.ba);
          Alcotest.(check bool) "ops are the two writes" true
            (Op.equal race.Commute.a race.Commute.b = false)
        | Ok _ -> Alcotest.fail "expected a commutation race");
        ignore (expect_refuted ~check:"commutation" s));
    test "a hang on one side of a declared-independent pair is a race"
      (fun () ->
        ignore (expect_refuted ~check:"commutation" (lying_hang_independence ())));
    test "the semantic judgment needs no declaration and stays sound"
      (fun () ->
        (* Same alphabet as the lying subject, Semantic judgment: proved. *)
        let s =
          Subject.make ~name:"honest-writes" ~model:O.Register.model_bot
            ~alphabet:[ op "write" [ tok 0 ]; op "write" [ tok 1 ] ]
            ~expected:Subject.Deterministic ()
        in
        let f = finding_of "commutation" (Analyzer.analyze_subject s) in
        Alcotest.(check bool) "proved" true (Verdict.is_proved f.Analyzer.verdict));
    test "the full group is not an automorphism group of WRN₃" (fun () ->
        let s = wrong_group () in
        let space =
          match Reach.enumerate s with
          | Ok sp -> sp
          | Error flaw -> Alcotest.failf "reach: %a" Reach.pp_flaw flaw
        in
        (match Equivariance.check s space with
        | Error (Equivariance.Not_equivariant _) -> ()
        | Error v ->
          Alcotest.failf "unexpected violation: %a" Equivariance.pp_violation v
        | Ok _ -> Alcotest.fail "expected an equivariance violation");
        ignore (expect_refuted ~check:"equivariance" s));
    test "branching declared deterministic is linted" (fun () ->
        ignore (expect_refuted ~check:"classification" (misdeclared_det ())));
    test "an undeclared hang is linted" (fun () ->
        ignore (expect_refuted ~check:"classification" (misdeclared_total ())));
    test "a spurious nondeterminism declaration is linted" (fun () ->
        ignore (expect_refuted ~check:"classification" (misdeclared_nondet ())));
    test "a value-dependent model cannot claim obliviousness" (fun () ->
        ignore (expect_refuted ~check:"classification" (value_dependent ())));
  ]

(* --- infrastructure details the checks rely on --- *)

let mechanics_tests =
  [
    test "swap_values is a structural involution" (fun () ->
        let u = tok 0 and w = tok 1 in
        let v =
          Value.Vec [ tok 0; Value.Pair (tok 1, Value.Sym "s"); Value.Int 7 ]
        in
        let swapped = Classify.swap_values u w v in
        Alcotest.check value "swapped"
          (Value.Vec [ tok 1; Value.Pair (tok 0, Value.Sym "s"); Value.Int 7 ])
          swapped;
        Alcotest.check value "involution" v
          (Classify.swap_values u w swapped));
    test "an op budget bounds the enumeration without truncation" (fun () ->
        let s =
          Subject.make ~name:"counter" ~model:O.Counter_obj.model
            ~alphabet:[ op "inc" []; op "read" [] ]
            ~expected:Subject.Deterministic ~bound:(Subject.Ops 2) ()
        in
        match Reach.enumerate s with
        | Ok sp ->
          Alcotest.(check int) "states 0,1,2" 3 sp.Reach.n_states;
          Alcotest.(check int) "depth 2" 2 sp.Reach.depth;
          Alcotest.(check bool) "not truncated" false sp.Reach.truncated
        | Error flaw -> Alcotest.failf "reach: %a" Reach.pp_flaw flaw);
    test "a truncated closure downgrades every finding to limited" (fun () ->
        let s =
          Subject.make ~name:"counter-truncated" ~model:O.Counter_obj.model
            ~alphabet:[ op "inc" [] ]
            ~expected:Subject.Deterministic ~max_states:5 ()
        in
        let findings = Analyzer.analyze_subject s in
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (Analyzer.finding_name f ^ " limited")
              true
              (Verdict.is_limited f.Analyzer.verdict))
          findings);
    test "finding JSON carries the family/subject/check name" (fun () ->
        let s =
          Subject.make ~name:"tas" ~model:O.Tas_obj.model
            ~alphabet:[ op "test_and_set" []; op "read" [] ]
            ~expected:Subject.Deterministic ()
        in
        let f =
          finding_of "reachability"
            (Analyzer.analyze ~family:"fam" [ s ])
        in
        let json = Analyzer.to_json f in
        let contains sub =
          let n = String.length sub in
          let rec scan i =
            i + n <= String.length json
            && (String.sub json i n = sub || scan (i + 1))
          in
          scan 0
        in
        Alcotest.(check bool) "name in JSON" true
          (contains "fam/tas/reachability");
        Alcotest.(check bool) "status in JSON" true (contains "proved"));
  ]

(* --- the certificate mint and its consumer --- *)

let certificate_tests =
  [
    test "certify mints a certificate certified_reduction accepts" (fun () ->
        let entry =
          match Registry.find "alg2" with
          | Some e -> e
          | None -> Alcotest.fail "no alg2 family"
        in
        match Analyzer.certify ~family:"alg2" entry.Registry.subjects with
        | Error fs ->
          Alcotest.failf "certify failed with %d findings" (List.length fs)
        | Ok cert ->
          Alcotest.(check string) "minted by the analyzer" "subc_analysis"
            (Explore.Certificate.tool cert);
          Alcotest.(check bool) "obligations discharged" true
            (List.mem "pairwise-commutation"
               (Explore.Certificate.obligations cert));
          let sym = Symmetry.standard ~n:3 ~input_base:100 `Rotations in
          ignore (Explore.certified_reduction ~certificate:cert (Some sym)));
    test "certify refuses when any finding is not proved" (fun () ->
        match Analyzer.certify ~family:"bad" [ lying_independence () ] with
        | Ok _ -> Alcotest.fail "expected no certificate"
        | Error fs ->
          Alcotest.(check bool) "at least one refuted finding" true
            (List.exists (fun f -> Verdict.is_refuted f.Analyzer.verdict) fs));
  ]

(* --- the abstract interpreter: footprints, bounds, and DSL lints --- *)

module Absint = Subc_analysis.Absint

let objects_entry () =
  match Registry.find "objects" with
  | Some e -> e
  | None -> Alcotest.fail "no objects family"

let objects_protocol name =
  let e = objects_entry () in
  let p =
    List.find
      (fun (p : Absint.protocol) -> p.Absint.p_name = name)
      (e.Registry.protocols ())
  in
  (p, Registry.declared_alphabets e.Registry.subjects)

let absint_tests =
  [
    test "blessed busy-wait: clean lints, unbounded bound" (fun () ->
        let p, declared = objects_protocol "objects.busy-wait" in
        let r = Absint.analyze ~declared p in
        Alcotest.(check int) "no lints" 0 (List.length r.Absint.r_lints);
        Alcotest.(check bool) "unbounded" true
          (r.Absint.r_bound = Absint.Unbounded);
        Alcotest.(check bool) "not widened" false r.Absint.r_widened);
    test "straight-line sweep: exact footprint and wait-free bound"
      (fun () ->
        let p, declared = objects_protocol "objects.rmw-sweep" in
        let r = Absint.analyze ~declared p in
        Alcotest.(check int) "no lints" 0 (List.length r.Absint.r_lints);
        Alcotest.(check bool) "bounded by 4" true
          (r.Absint.r_bound = Absint.Bounded 4);
        Alcotest.(check int) "four (handle, op) pairs" 4
          (List.length r.Absint.r_footprint);
        let kinds =
          List.sort_uniq compare
            (List.map (fun (_, k, _) -> k) r.Absint.r_footprint)
        in
        Alcotest.(check (list string))
          "kinds" [ "cas"; "register"; "test_and_set" ] kinds;
        Alcotest.(check bool) "not widened" false r.Absint.r_widened);
  ]

(* Seeded protocol mutations: each DSL soundness bug must refute with a
   concrete witness through the same entry point the CI gate uses. *)

let register_decl =
  Absint.decl ~kind:"register" [ op "read" []; op "write" [ tok 0 ] ]

let expect_lint_refuted ~name protocol_of =
  let p = protocol_of () in
  let f =
    Analyzer.lint_protocol ~family:"mutant" ~declared:[ register_decl ] p
  in
  (match f.Analyzer.verdict with
  | Verdict.Refuted _ -> ()
  | v -> Alcotest.failf "%s: expected refuted, got %a" name Verdict.pp_summary v);
  let r = Absint.analyze ~declared:[ register_decl ] p in
  r.Absint.r_lints

(* The checkpoint hoisted above the loop's entry write: the same key now
   names two different resumption points, so its head shapes disagree. *)
let hoisted_checkpoint () =
  let store, r = Store.alloc Store.empty O.Register.model_bot in
  let open Program.Syntax in
  let rec loop () =
    let* () = Program.checkpoint (Value.Sym "spin") in
    let* v = Program.invoke r (op "read" []) in
    if Value.is_bot v then loop () else Program.return v
  in
  let hoisted =
    let* () = Program.checkpoint (Value.Sym "spin") in
    let* _ = Program.invoke r (op "write" [ tok 0 ]) in
    loop ()
  in
  Absint.protocol ~name:"mutant.hoisted-checkpoint" ~store hoisted

(* An op name the declared register alphabet does not contain. *)
let undeclared_op () =
  let store, r = Store.alloc Store.empty O.Register.model_bot in
  let open Program.Syntax in
  Absint.protocol ~name:"mutant.undeclared-op" ~store
    (let* _ = Program.invoke r (op "sneak" []) in
     Program.return Value.Unit)

(* The protocol touches a CAS object the declaration never mentions: an
   under-declared footprint. *)
let underdeclared_footprint () =
  let store, c = Store.alloc Store.empty O.Cas_obj.model_bot in
  let open Program.Syntax in
  Absint.protocol ~name:"mutant.underdeclared" ~store
    (let* _ = Program.invoke c (op "cas" [ Value.Bot; tok 0 ]) in
     Program.return Value.Unit)

(* A continuation reading hidden mutable state: applying it twice to the
   same response yields different resumption points. *)
let nondet_continuation () =
  let store, r = Store.alloc Store.empty O.Register.model_bot in
  let flip = ref false in
  Absint.protocol ~name:"mutant.nondet-continuation" ~store
    (Program.Invoke
       ( r,
         op "read" [],
         fun _ ->
           flip := not !flip;
           if !flip then Program.Return (tok 0) else Program.Return (tok 1) ))

let mutation_tests =
  [
    test "hoisted checkpoint refutes with a checkpoint witness" (fun () ->
        let lints =
          expect_lint_refuted ~name:"hoisted" hoisted_checkpoint
        in
        Alcotest.(check bool) "checkpoint inconsistency on the spin key" true
          (List.exists
             (function
               | Absint.Checkpoint_inconsistent { key } ->
                 Value.equal key (Value.Sym "spin")
               | _ -> false)
             lints));
    test "op outside the declared alphabet refutes" (fun () ->
        let lints = expect_lint_refuted ~name:"sneak" undeclared_op in
        Alcotest.(check bool) "op-outside-alphabet on sneak" true
          (List.exists
             (function
               | Absint.Op_outside_alphabet { kind; op = o } ->
                 kind = "register" && o.Op.name = "sneak"
               | _ -> false)
             lints));
    test "under-declared footprint refutes with the missing kind" (fun () ->
        let lints =
          expect_lint_refuted ~name:"underdeclared" underdeclared_footprint
        in
        Alcotest.(check bool) "undeclared-handle on the cas object" true
          (List.exists
             (function
               | Absint.Undeclared_handle { kind; _ } -> kind = "cas"
               | _ -> false)
             lints));
    test "an impure continuation refutes as nondeterministic" (fun () ->
        let lints =
          expect_lint_refuted ~name:"nondet" nondet_continuation
        in
        Alcotest.(check bool) "nondet-continuation on read" true
          (List.exists
             (function
               | Absint.Nondet_continuation { op = o; _ } ->
                 o.Op.name = "read"
               | _ -> false)
             lints));
  ]

(* --- the lint gate itself: every registry protocol must come back
   proved, exactly as the CI job demands --- *)

let lint_gate_tests =
  List.map
    (fun entry ->
      let family = entry.Registry.family in
      test
        (Printf.sprintf "lint gate: %s protocols are clean" family)
        (fun () ->
          let findings =
            if family = "alg5" then
              (* one exemplar: the three are rotations of one another and
                 each costs seconds of exact branch exploration over the
                 snapshot's view-vector responses *)
              let declared =
                Registry.declared_alphabets entry.Registry.subjects
              in
              [
                Analyzer.lint_protocol ~family ~declared
                  (List.hd (entry.Registry.protocols ()));
              ]
            else Analyzer.lint ~family ()
          in
          Alcotest.(check bool) "has findings" true (findings <> []);
          List.iter
            (fun f ->
              if not (Verdict.is_proved f.Analyzer.verdict) then
                Alcotest.failf "%s: %a" (Analyzer.finding_name f)
                  Verdict.pp_summary f.Analyzer.verdict)
            findings))
    (Registry.entries ())

(* --- the semantic commutation judgment on a register --- *)

let register_subject () =
  Subject.make ~name:"register-commute" ~model:O.Register.model_bot
    ~alphabet:[ op "read" []; op "write" [ tok 0 ]; op "write" [ tok 1 ] ]
    ~expected:Subject.Deterministic ()

let independence_tests =
  [
    test "register pairs: reads commute, writes race, read/write depends"
      (fun () ->
        match Reach.enumerate (register_subject ()) with
        | Error flaw -> Alcotest.failf "reach: %a" Reach.pp_flaw flaw
        | Ok space ->
          let model = O.Register.model_bot in
          let judged a b =
            List.map
              (fun st -> Explore.op_independent model st a b)
              space.Reach.states
          in
          let read = op "read" []
          and w0 = op "write" [ tok 0 ]
          and w1 = op "write" [ tok 1 ] in
          Alcotest.(check int) "bot plus two written values" 3
            space.Reach.n_states;
          Alcotest.(check bool) "reads always commute" true
            (List.for_all Fun.id (judged read read));
          Alcotest.(check bool) "distinct writes never commute" true
            (List.for_all not (judged w0 w1));
          let rw = judged read w0 in
          Alcotest.(check bool) "read vs write commutes somewhere" true
            (List.mem true rw);
          Alcotest.(check bool) "read vs write races somewhere" true
            (List.mem false rw));
    test "certificates attest exactly the remaining obligations" (fun () ->
        let entry =
          match Registry.find "alg2" with
          | Some e -> e
          | None -> Alcotest.fail "no alg2 family"
        in
        match Analyzer.certify ~family:"alg2" entry.Registry.subjects with
        | Error fs ->
          Alcotest.failf "certify failed with %d findings" (List.length fs)
        | Ok cert ->
          Alcotest.(check (list string))
            "obligations"
            [
              "apply-purity";
              "pairwise-commutation";
              "source-set-closure";
              "symmetry-equivariance";
              "recovery-projection";
              "classification";
            ]
            (Explore.Certificate.obligations cert));
  ]

let subject_tests =
  [
    test "reports name the group the symmetry was given" (fun () ->
        List.iter
          (fun (expected, sym) ->
            Alcotest.(check string) expected expected (Symmetry.group_name sym))
          [
            ("trivial", Symmetry.standard ~n:3 `Trivial);
            ("rotations", Symmetry.standard ~n:3 `Rotations);
            ("full", Symmetry.standard ~n:3 ~erase_dead:false `Full);
            ("trivial", Symmetry.trivial ~n:3);
            ("trivial", Symmetry.erasure_only ~n:3);
          ];
        let s =
          Subject.make ~name:"default" ~model:O.Register.model_bot
            ~alphabet:[ op "read" [] ] ~expected:Subject.Deterministic ()
        in
        Alcotest.(check string) "a subject's default group" "trivial"
          (Symmetry.group_name s.Subject.symmetry));
    test "op pairs: every unordered pair once, same-op pairs included"
      (fun () ->
        let alphabet = [ op "read" []; op "write" [ tok 0 ]; op "write" [ tok 1 ] ] in
        let s =
          Subject.make ~name:"pairs" ~model:O.Register.model_bot ~alphabet
            ~expected:Subject.Deterministic ()
        in
        let pairs = Subject.op_pairs s in
        Alcotest.(check int) "3 choose 2 plus 3" 6 (List.length pairs);
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                let listed =
                  List.length
                    (List.filter (fun p -> p = (a, b) || p = (b, a)) pairs)
                in
                Alcotest.(check int)
                  (Printf.sprintf "pair %d,%d listed once" i j)
                  1 listed)
              alphabet)
          alphabet);
    test "independence: semantic reads the state, declared does not"
      (fun () ->
        let read = op "read" [] and w0 = op "write" [ tok 0 ] in
        let alphabet = [ read; w0; op "write" [ tok 1 ] ] in
        let semantic =
          Subject.make ~name:"semantic" ~model:O.Register.model_bot ~alphabet
            ~expected:Subject.Deterministic ()
        and declared =
          Subject.make ~name:"declared" ~model:O.Register.model_bot ~alphabet
            ~expected:Subject.Deterministic
            ~independence:(Subject.Declared (fun a b -> a = b))
            ()
        in
        match Reach.enumerate semantic with
        | Error flaw -> Alcotest.failf "reach: %a" Reach.pp_flaw flaw
        | Ok space ->
          List.iter
            (fun st ->
              List.iter
                (fun (a, b) ->
                  Alcotest.(check bool) "semantic is op_independent"
                    (Explore.op_independent O.Register.model_bot st a b)
                    (Subject.independent semantic st a b);
                  Alcotest.(check bool) "declared is the predicate" (a = b)
                    (Subject.independent declared st a b))
                (Subject.op_pairs semantic))
            space.Reach.states;
          let judged =
            List.map
              (fun st -> Subject.independent semantic st read w0)
              space.Reach.states
          in
          Alcotest.(check bool) "semantic read/write differs by state" true
            (List.mem true judged && List.mem false judged));
  ]

let suite =
  [
    ("analysis.registry", registry_tests @ [ subjects_cover_instances ]);
    ("analysis.negative", negative_tests);
    ("analysis.mechanics", mechanics_tests);
    ("analysis.certificates", certificate_tests);
    ("analysis.absint", absint_tests);
    ("analysis.mutations", mutation_tests);
    ("analysis.lint-gate", lint_gate_tests);
    ("analysis.independence", independence_tests);
    ("analysis.subject", subject_tests);
  ]
