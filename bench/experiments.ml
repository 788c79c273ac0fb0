(* The experiment tables of EXPERIMENTS.md (the paper is a theory paper with
   no tables or figures; its theorems are the reproduction targets — one
   experiment per result, see DESIGN.md). *)

open Subc_sim
module Task = Subc_tasks.Task
module Alg2 = Subc_core.Alg2
module Alg3 = Subc_core.Alg3
module Alg4 = Subc_core.Alg4
module Alg5 = Subc_core.Alg5
module Alg6 = Subc_core.Alg6
module Hierarchy = Subc_core.Hierarchy
module Valence = Subc_check.Valence
module Task_check = Subc_check.Task_check
module Progress = Subc_check.Progress
module Verdict = Subc_check.Verdict
module Lin = Subc_check.Linearizability

(* Map the unified verdict back onto the e6/e9 table vocabulary: refutations
   by an infinite schedule read "diverges", safety refutations "violation". *)
let consensus_verdict_name config ~inputs =
  match Valence.consensus_verdict config ~inputs with
  | Verdict.Proved _ -> "solves"
  | Verdict.Refuted { reason; _ } ->
    let diverges =
      let sub = "infinite schedule" in
      let n = String.length sub in
      let rec scan i =
        i + n <= String.length reason && (String.sub reason i n = sub || scan (i + 1))
      in
      scan 0
    in
    if diverges then "diverges" else "violation"
  | Verdict.Limited _ -> "unknown"

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Format.printf "!! %s FAILED@." name
  end;
  if ok then "ok" else "FAIL"

let table ~title ~header rows =
  Format.printf "@.%s@." title;
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    Format.printf "| %s |@."
      (String.concat " | "
         (List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths row))
  in
  print_row header;
  Format.printf "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows

let seeds n = List.init n (fun i -> (7919 * (i + 1)) + 13)

(* ------------------------------------------------------------------ E1 *)

let max_distinct_exhaustive store programs =
  let config = Config.make store programs in
  let best = ref 0 in
  let stats =
    Search.iter_terminals config ~f:(fun final _ ->
        best := max !best (List.length (Task.distinct (Config.decisions final))))
  in
  (!best, stats)

let e1 () =
  let rows_exh =
    List.map
      (fun k ->
        let store, t = Alg2.alloc Store.empty ~k ~one_shot:true in
        let inputs = List.init k (fun i -> Value.Int (100 + i)) in
        let programs = List.mapi (fun i v -> Alg2.propose t ~i v) inputs in
        let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
        let ok =
          Verdict.is_proved (Task_check.check store ~programs ~inputs ~task)
        in
        let best, stats = max_distinct_exhaustive store programs in
        [
          string_of_int k; "exhaustive"; string_of_int stats.Explore.states;
          string_of_int best; string_of_int (k - 1);
          check (Printf.sprintf "E1 k=%d" k) (ok && best = k - 1);
        ])
      [ 3; 4; 5; 6 ]
  in
  let rows_sam =
    List.map
      (fun k ->
        let store, t = Alg2.alloc Store.empty ~k ~one_shot:true in
        let inputs = List.init k (fun i -> Value.Int (100 + i)) in
        let programs = List.mapi (fun i v -> Alg2.propose t ~i v) inputs in
        let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
        let s = Task_check.sample store ~programs ~inputs ~task ~seeds:(seeds 400) in
        let best =
          let b = ref 0 in
          Array.iteri (fun i c -> if c > 0 then b := i + 1) s.Task_check.distinct_counts;
          !b
        in
        [
          string_of_int k; "400 runs"; "-"; string_of_int best;
          string_of_int (k - 1);
          check (Printf.sprintf "E1 k=%d sampled" k)
            (s.Task_check.violations = 0);
        ])
      [ 7; 8; 10 ]
  in
  table ~title:"E1. Algorithm 2: (k,k-1)-set consensus from one WRN_k"
    ~header:[ "k"; "mode"; "states"; "max-distinct"; "bound k-1"; "verdict" ]
    (rows_exh @ rows_sam)

(* ------------------------------------------------------------------ E2 *)

let e2 () =
  let rows =
    List.map
      (fun k ->
        let inputs = List.init k (fun i -> Value.Int (100 + i)) in
        (* WRN: guaranteed bound k−1 over ALL schedules. *)
        let store_w, t = Alg2.alloc Store.empty ~k ~one_shot:true in
        let programs_w = List.mapi (fun i v -> Alg2.propose t ~i v) inputs in
        let wrn_max, _ = max_distinct_exhaustive store_w programs_w in
        (* Registers: some schedule reaches k. *)
        let store_r, r = Subc_classic.Rw_baseline.alloc Store.empty ~k in
        let programs_r =
          List.mapi (fun i v -> Subc_classic.Rw_baseline.propose r ~i v) inputs
        in
        let reg_max, _ = max_distinct_exhaustive store_r programs_r in
        [
          string_of_int k; string_of_int wrn_max; string_of_int reg_max;
          check (Printf.sprintf "E2 k=%d" k) (wrn_max = k - 1 && reg_max = k);
        ])
      [ 3; 4 ]
  in
  table
    ~title:
      "E2. The register gap (Cor 10): worst-case distinct decisions, all \
       schedules"
    ~header:[ "k"; "WRN_k"; "registers"; "verdict" ]
    rows

(* ------------------------------------------------------------------ E3 *)

let e3_config ~k ~flavor ~renamer ~ids =
  let store, t = Alg3.alloc Store.empty ~k ~flavor ~renamer () in
  let inputs = List.map (fun id -> Value.Int (100 + id)) ids in
  let programs =
    List.mapi (fun slot id -> Alg3.propose t ~slot ~id (Value.Int (100 + id))) ids
  in
  (store, programs, inputs, Alg3.instances t)

let e3 () =
  let run name ~k ~flavor ~renamer ~ids ~exhaustive =
    let store, programs, inputs, instances =
      e3_config ~k ~flavor ~renamer ~ids
    in
    let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
    let mode, ok =
      if exhaustive then
        ( "exhaustive",
          Verdict.is_proved (Task_check.check store ~programs ~inputs ~task) )
      else
        let s =
          Task_check.sample store ~programs ~inputs ~task ~seeds:(seeds 300)
        in
        ("300 runs", s.Task_check.violations = 0)
    in
    [
      string_of_int k; name; string_of_int instances; mode;
      string_of_int (k - 1); check ("E3 " ^ name) ok;
    ]
  in
  table
    ~title:"E3. Algorithm 3: k participants out of many (renaming + sweep)"
    ~header:[ "k"; "configuration"; "instances"; "mode"; "bound"; "verdict" ]
    [
      run "plain+grid" ~k:2 ~flavor:Alg3.Plain_wrn ~renamer:Alg3.Rename_grid
        ~ids:[ 13; 7 ] ~exhaustive:true;
      run "plain+snapshot-renaming" ~k:2 ~flavor:Alg3.Plain_wrn
        ~renamer:Alg3.Rename_snapshot ~ids:[ 13; 7 ] ~exhaustive:true;
      run "plain+identity(5 names)" ~k:3 ~flavor:Alg3.Plain_wrn
        ~renamer:(Alg3.Rename_identity 5) ~ids:[ 0; 2; 4 ] ~exhaustive:false;
      run "relaxed+grid" ~k:3 ~flavor:Alg3.Relaxed_wrn ~renamer:Alg3.Rename_grid
        ~ids:[ 19; 3; 11 ] ~exhaustive:false;
      run "relaxed+snapshot-renaming" ~k:3 ~flavor:Alg3.Relaxed_wrn
        ~renamer:Alg3.Rename_snapshot ~ids:[ 104; 2; 77 ] ~exhaustive:false;
    ]

(* ------------------------------------------------------------------ E4 *)

let e4 () =
  let run name ~indices =
    let store, t = Alg4.alloc Store.empty ~k:3 in
    let programs =
      List.mapi (fun p i -> Alg4.rlx_wrn t ~i (Value.Int (100 + p))) indices
    in
    let legal =
      Verdict.is_proved (Progress.check_t_resilient ~t:0 store ~programs)
    in
    let config = Config.make store programs in
    let all_bot, _ =
      Search.find_terminal config ~violates:(fun final ->
          List.for_all Value.is_bot (Config.decisions final))
    in
    [
      name; (if legal then "never" else "REACHED");
      (if all_bot <> None then "yes" else "no");
      check ("E4 " ^ name) legal;
    ]
  in
  table
    ~title:
      "E4. Algorithm 4 (relaxed WRN over 1sWRN_3): legality under collisions"
    ~header:[ "index pattern"; "illegal use"; "all-bot reachable"; "verdict" ]
    [
      run "0,1,2 (distinct)" ~indices:[ 0; 1; 2 ];
      run "0,0,1 (partial collision)" ~indices:[ 0; 0; 1 ];
      run "0,0,0 (full collision)" ~indices:[ 0; 0; 0 ];
    ]

(* ------------------------------------------------------------------ E5 *)

let e5_row ~k ~participants ~max_states =
  let store, t = Alg5.alloc Store.empty ~k () in
  let programs =
    List.map (fun i -> Alg5.wrn t ~i (Value.Int (100 + i))) participants
  in
  let ops i =
    let idx = List.nth participants i in
    Op.make "wrn" [ Value.Int idx; Value.Int (100 + idx) ]
  in
  let spec = Subc_objects.One_shot_wrn.model ~k in
  let config = Config.make store programs in
  let terminals = ref 0 and bad = ref 0 in
  let stats =
    Search.iter_terminals
      ~options:Search.(default |> with_max_states max_states)
      config ~f:(fun final trace ->
        incr terminals;
        let history = Lin.history ~ops final trace in
        if Lin.check ~spec history = None then incr bad)
  in
  let name =
    Printf.sprintf "k=%d parts={%s}" k
      (String.concat "," (List.map string_of_int participants))
  in
  [
    name;
    string_of_int stats.Explore.states;
    string_of_int !terminals;
    string_of_int !bad;
    check ("E5 " ^ name) (!bad = 0 && not stats.Explore.limited);
  ]

let e5 () =
  table
    ~title:
      "E5. Algorithm 5: linearizability of 1sWRN_k from strong set election"
    ~header:[ "instance"; "states"; "terminals"; "non-linearizable"; "verdict" ]
    [
      e5_row ~k:3 ~participants:[ 0; 1 ] ~max_states:2_000_000;
      e5_row ~k:3 ~participants:[ 0; 2 ] ~max_states:2_000_000;
      e5_row ~k:3 ~participants:[ 0; 1; 2 ] ~max_states:4_000_000;
      e5_row ~k:4 ~participants:[ 0; 1; 2; 3 ] ~max_states:8_000_000;
    ]

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  let verdict ~k ~style =
    let store, t = Subc_classic.Wrn_attempts.alloc Store.empty ~k ~style in
    let programs =
      [
        Subc_classic.Wrn_attempts.propose t ~me:0 (Value.Int 0);
        Subc_classic.Wrn_attempts.propose t ~me:1 (Value.Int 1);
      ]
    in
    let config = Config.make store programs in
    consensus_verdict_name config ~inputs:[ Value.Int 0; Value.Int 1 ]
  in
  let styles =
    [
      ("mirror-alg2", Subc_classic.Wrn_attempts.Mirror_alg2, "violation");
      ("same-index", Subc_classic.Wrn_attempts.Same_index, "violation");
      ("announce+adjacent", Subc_classic.Wrn_attempts.Adjacent_announce, "violation");
      ("busy-wait", Subc_classic.Wrn_attempts.Busy_wait, "diverges");
    ]
  in
  (* On WRN₂ the mirror and announce protocols are real 2-consensus; the
     same-index protocol still fails; busy-wait fails by disagreement (its
     spin cell 0 is written by P0, so it terminates — into a violation). *)
  let expected_k2 = function
    | "mirror-alg2" | "announce+adjacent" -> "solves"
    | "same-index" | "busy-wait" -> "violation"
    | _ -> "diverges"
  in
  table
    ~title:
      "E6. Lemma 38: 2-process consensus attempts — WRN_2 vs WRN_k (k>=3)"
    ~header:[ "protocol"; "WRN_2"; "WRN_3"; "WRN_4"; "verdict" ]
    (List.map
       (fun (name, style, expect3) ->
         let v2 = verdict ~k:2 ~style in
         let v3 = verdict ~k:3 ~style in
         let v4 = verdict ~k:4 ~style in
         [
           name; v2; v3; v4;
           check ("E6 " ^ name)
             (v3 = expect3 && v4 = expect3 && v2 = expected_k2 name);
         ])
       styles)

(* ------------------------------------------------------------------ E7 *)

let e7 () =
  let rows =
    List.concat_map
      (fun k ->
        List.filter_map
          (fun n ->
            if n < k then None
            else
              let m = Alg6.agreement_bound ~n ~k in
              let store, t = Alg6.alloc Store.empty ~n ~k ~one_shot:true in
              let inputs = List.init n (fun i -> Value.Int (100 + i)) in
              let programs = List.mapi (fun i v -> Alg6.propose t ~i v) inputs in
              let task =
                Task.conj (Task.set_consensus m) Task.all_decided
              in
              let s =
                Task_check.sample store ~programs ~inputs ~task
                  ~seeds:(seeds 200)
              in
              let best =
                let b = ref 0 in
                Array.iteri
                  (fun i c -> if c > 0 then b := i + 1)
                  s.Task_check.distinct_counts;
                !b
              in
              Some
                [
                  string_of_int n; string_of_int k; string_of_int m;
                  Printf.sprintf "%.2f" (float_of_int m /. float_of_int n);
                  Printf.sprintf "%.2f" (float_of_int (k - 1) /. float_of_int k);
                  string_of_int best;
                  check (Printf.sprintf "E7 n=%d k=%d" n k)
                    (s.Task_check.violations = 0);
                ])
          [ 3; 4; 6; 8; 12 ])
      [ 3; 4; 5 ]
  in
  table
    ~title:
      "E7. Algorithm 6: m-set consensus for n processes (ratio (k-1)/k <= m/n)"
    ~header:[ "n"; "k"; "m"; "m/n"; "(k-1)/k"; "max-distinct(200)"; "verdict" ]
    rows

(* ------------------------------------------------------------------ E8 *)

let e8 () =
  let pair_rows =
    List.map
      (fun (k, k') ->
        let fwd = Hierarchy.implementable ~n:k' ~k:(k' - 1) ~m:k ~j:(k - 1) in
        let sep = Hierarchy.separates ~k ~k' in
        [
          Printf.sprintf "%d -> %d" k k';
          (if fwd then "yes" else "no");
          (if sep then "no (Thm 41)" else "yes");
          check (Printf.sprintf "E8 %d->%d" k k') (fwd && sep);
        ])
      [ (3, 4); (3, 5); (4, 5); (4, 6); (5, 9) ]
  in
  table
    ~title:
      "E8. Corollary 42: the hierarchy — 1sWRN_k implements 1sWRN_k' iff k <= k'"
    ~header:[ "k -> k'"; "upward"; "downward"; "verdict" ]
    pair_rows;
  (* Partition construction demo. *)
  let store, t = Hierarchy.alloc_set_consensus Store.empty ~n:4 ~m:3 ~j:2 in
  let inputs = List.init 4 (fun i -> Value.Int (100 + i)) in
  let programs = List.mapi (fun i v -> Hierarchy.propose t ~i v) inputs in
  let best, stats = max_distinct_exhaustive store programs in
  Format.printf
    "partition construction (4 procs from (3,2)-objects): max distinct %d \
     (bound %d), states %d  [%s]@."
    best
    (Hierarchy.partition_bound ~n:4 ~m:3 ~j:2)
    stats.Explore.states
    (check "E8 partition" (best = 3))

(* ------------------------------------------------------------------ E9 *)

let e9 () =
  let store, h = Store.alloc Store.empty (Subc_objects.Sse_obj.model ~k:3 ~j:2) in
  let store, regs = Store.alloc_many store 2 Subc_objects.Register.model_bot in
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
  let v = consensus_verdict_name config ~inputs:[ Value.Int 0; Value.Int 1 ] in
  Format.printf
    "@.E9. The S2 strong-set-election object cannot solve 2-consensus \
     (win/lose protocol): %s  [%s]@."
    v
    (check "E9" (v = "violation"))

(* ----------------------------------------------------------------- E10 *)

let e10 () =
  (* Snapshot refinement. *)
  let outcomes_of store programs =
    let config = Config.make store programs in
    let acc = ref [] in
    let _ =
      Search.iter_terminals config ~f:(fun final _ ->
          acc := Config.decisions final :: !acc)
    in
    List.sort_uniq compare !acc
  in
  let harness (api : Subc_rwmem.Snapshot_api.t) =
    let program me v =
      let open Program.Syntax in
      let* () = api.Subc_rwmem.Snapshot_api.update ~me (Value.Int v) in
      api.Subc_rwmem.Snapshot_api.scan
    in
    [ program 0 10; program 1 11 ]
  in
  let store_p, api_p = Subc_rwmem.Snapshot_api.primitive Store.empty 2 in
  let spec_outcomes = outcomes_of store_p (harness api_p) in
  let store_r, api_r = Subc_rwmem.Snapshot_api.register_based Store.empty 2 in
  let impl_outcomes = outcomes_of store_r (harness api_r) in
  let refines = List.for_all (fun o -> List.mem o spec_outcomes) impl_outcomes in
  (* Counter flag principle. *)
  let store, counter =
    Subc_rwmem.Counter_impl.alloc Store.empty ~contributors:2
      ~snapshot:Subc_rwmem.Snapshot_api.register_based
  in
  let program me =
    let open Program.Syntax in
    let* () = Subc_rwmem.Counter_impl.inc counter ~me in
    let* c = Subc_rwmem.Counter_impl.read counter in
    Program.return (Value.Int c)
  in
  let config = Config.make store [ program 0; program 1 ] in
  let flag_ok =
    Result.is_ok
      (Search.check_terminals config ~ok:(fun final ->
           List.length
             (List.filter (Value.equal (Value.Int 1)) (Config.decisions final))
           <= 1))
  in
  table ~title:"E10. Substrate validity (register-only constructions)"
    ~header:[ "construction"; "property"; "result"; "verdict" ]
    [
      [
        "AADGMS snapshot (n=2)"; "refines atomic snapshot";
        Printf.sprintf "%d impl / %d spec outcomes"
          (List.length impl_outcomes) (List.length spec_outcomes);
        check "E10 snapshot" refines;
      ];
      [
        "counter from snapshot"; "flag principle (<=1 reads 1)";
        (if flag_ok then "holds" else "broken");
        check "E10 counter" flag_ok;
      ];
    ]

(* ----------------------------------------------------------------- E11 *)

let e11 () =
  let elect_programs t ids =
    List.map
      (fun i ->
        Program.map (fun w -> Value.Int w)
          (Subc_core.Sse_from_set_consensus.elect t ~i))
      ids
  in
  let inputs = [ Value.Int 0; Value.Int 1; Value.Int 2 ] in
  let task = Task.strong_set_election 2 in
  let store_n, tn = Subc_core.Sse_from_set_consensus.alloc_naive Store.empty ~k:3 in
  let naive =
    match
      Task_check.check store_n ~programs:(elect_programs tn [ 0; 1; 2 ])
        ~inputs ~task
    with
    | Verdict.Refuted { reason; trace; _ } ->
      Printf.sprintf "%s (schedule length %d)" reason (Trace.length trace)
    | Verdict.Proved _ | Verdict.Limited _ -> "no violation (?)"
  in
  let store_i, ti =
    Subc_core.Sse_from_set_consensus.alloc_iterated Store.empty ~k:3
  in
  let iterated =
    match
      Task_check.check
        ~options:Search.(with_max_states 4_000_000 default)
        store_i ~programs:(elect_programs ti [ 0; 1; 2 ]) ~inputs ~task
    with
    | Verdict.Refuted { reason; trace; _ } ->
      Printf.sprintf "%s (schedule length %d)" reason (Trace.length trace)
    | Verdict.Proved _ | Verdict.Limited _ -> "no violation (?)"
  in
  table
    ~title:
      "E11. Why [9] is nontrivial: candidate SSE constructions fail \
       (model-checked counterexamples)"
    ~header:[ "candidate"; "counterexample"; "verdict" ]
    [
      [ "naive (1 round)"; naive; check "E11 naive" (naive <> "no violation (?)") ];
      [
        "iterated (k rounds + commit board)"; iterated;
        check "E11 iterated" (iterated <> "no violation (?)");
      ];
    ]

(* ----------------------------------------------------------------- E12 *)

let e12 () =
  let show = function
    | `Solves -> "solves"
    | `Violates -> "fails"
    | `Diverges -> "diverges"
    | `Unknown -> "unknown"
  in
  let rows =
    List.map
      (fun family ->
        let v2 = Subc_classic.Consensus_number.verdict family ~n:2 in
        let v3 = Subc_classic.Consensus_number.verdict family ~n:3 in
        let known = Subc_classic.Consensus_number.known_consensus_number family in
        let expected =
          match known with
          | Some 1 -> v2 <> `Solves && v3 <> `Solves
          | Some 2 -> v2 = `Solves && v3 <> `Solves
          | Some _ -> true
          | None -> v2 = `Solves && v3 = `Solves
        in
        [
          Subc_classic.Consensus_number.family_name family;
          show v2; show v3;
          (match known with Some n -> string_of_int n | None -> "∞");
          check ("E12 " ^ Subc_classic.Consensus_number.family_name family)
            expected;
        ])
      Subc_classic.Consensus_number.all_families
  in
  table
    ~title:
      "E12. The consensus hierarchy around the paper's band (canonical \
       protocols, model-checked)"
    ~header:[ "object"; "n=2"; "n=3"; "known cons. no."; "verdict" ]
    rows

(* ----------------------------------------------------------------- E13 *)

let e13 () =
  let module P = Subc_classic.Set_consensus_power in
  let grid = [ (2, 1); (2, 2); (3, 1); (3, 2); (4, 2); (4, 3) ] in
  let families =
    [
      P.Registers; P.Wrn_objects 3; P.Wrn_objects 4; P.Sse_object 3;
      P.Sse_object 4; P.Two_consensus_pairs; P.Cas_object;
    ]
  in
  let rows =
    List.map
      (fun family ->
        let cells_ok = ref true in
        let cells =
          List.map
            (fun (n, k) ->
              if not (P.applicable family ~n) then "-"
              else
                let got = P.verdict family ~n ~k in
                let want = P.predicted family ~n ~k in
                let shown =
                  match got with
                  | `Solves -> "yes"
                  | `Violates -> "no"
                  | `Diverges -> "div"
                  | `Unknown -> "?"
                in
                if (got = `Solves) <> want then begin
                  cells_ok := false;
                  shown ^ "!"
                end
                else shown)
            grid
        in
        (P.family_name family :: cells)
        @ [ check ("E13 " ^ P.family_name family) !cells_ok ])
      families
  in
  table
    ~title:
      "E13. Set-consensus power classification (the conclusion's yardstick): \
       does the family solve (n,k)-set consensus?"
    ~header:
      ("family"
      :: List.map (fun (n, k) -> Printf.sprintf "(%d,%d)" n k) grid
      @ [ "verdict" ])
    rows

(* ----------------------------------------------------------------- E14 *)

let e14 () =
  let module Ps = Subc_classic.Protocol_search in
  let rows =
    List.map
      (fun (k, ops) ->
        let c = Ps.census ~k ~ops () in
        let expect_solvers = k = 2 in
        [
          string_of_int k;
          string_of_int ops;
          string_of_int c.Ps.total;
          string_of_int c.Ps.solving;
          (match c.Ps.example_solver with
          | Some p -> Ps.describe p
          | None -> "-");
          check
            (Printf.sprintf "E14 k=%d ops=%d" k ops)
            (expect_solvers = (c.Ps.solving > 0));
        ])
      [ (2, 1); (3, 1); (4, 1); (2, 2); (3, 2) ]
  in
  table
    ~title:
      "E14. Exhaustive protocol-space refutation (Lemma 38's quantifier, \
       discharged for a bounded class)"
    ~header:[ "k"; "ops"; "protocols"; "solving"; "example solver"; "verdict" ]
    rows

(* ----------------------------------------------------------------- E15 *)

let e15 () =
  (* Algorithm 2, k=3: safety under EVERY schedule and every crash pattern
     with <= f crashes, f = 0, 1, 2. *)
  let alg2_rows =
    let k = 3 in
    let store, t = Alg2.alloc Store.empty ~k ~one_shot:true in
    let inputs = List.init k (fun i -> Value.Int (100 + i)) in
    let programs = List.mapi (fun i v -> Alg2.propose t ~i v) inputs in
    let task = Task.set_consensus (k - 1) in
    List.map
      (fun f ->
        let config = Config.make store programs in
        let outcome, states, ok =
          match
            Search.check_terminals
              ~options:Search.(default |> with_max_crashes f)
              config ~ok:(fun c ->
                Task.satisfies task ~inputs c)
          with
          | Ok stats ->
            ( "safe", stats.Explore.states,
              not stats.Explore.limited )
          | Error (_, _, stats) -> ("VIOLATION", stats.Explore.states, false)
        in
        [
          "Alg 2 (k=3) safety"; Printf.sprintf "exhaustive, f=%d" f;
          string_of_int states; outcome;
          check (Printf.sprintf "E15 alg2 f=%d" f) ok;
        ])
      [ 0; 1; 2 ]
  in
  (* Algorithm 5, k=3: every terminal under a one-crash budget linearizes
     against the 1sWRN spec (crashed participants = incomplete operations). *)
  let alg5_row =
    let k = 3 in
    let store, t = Alg5.alloc Store.empty ~k () in
    let programs =
      List.init k (fun i -> Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    let ops i = Op.make "wrn" [ Value.Int i; Value.Int (100 + i) ] in
    let spec = Subc_objects.One_shot_wrn.model ~k in
    let config = Config.make store programs in
    let bad = ref 0 in
    let stats =
      Search.iter_terminals
        ~options:Search.(default |> with_max_crashes 1)
        config ~f:(fun final trace ->
          let history = Lin.history ~ops final trace in
          if Lin.check ~spec history = None then incr bad)
    in
    [
      "Alg 5 (k=3) linearizability"; "exhaustive, f=1";
      string_of_int stats.Explore.states;
      Printf.sprintf "%d bad / %d terminals (%d crashed)" !bad
        stats.Explore.terminals stats.Explore.crashed_terminals;
      check "E15 alg5 lin f=1" (!bad = 0 && not stats.Explore.limited);
    ]
  in
  (* Wait-freedom certificates (solo-step bounds), crash budget included. *)
  let progress_row name ~expect_bound store programs ~max_crashes =
    match
      Progress.check_wait_free
        ~options:Search.(with_max_crashes max_crashes default)
        store ~programs
    with
    | Verdict.Proved _ as v ->
      let metric key =
        match List.assoc_opt key (Verdict.stats v).Verdict.metrics with
        | Some x -> int_of_float x
        | None -> -1
      in
      [
        name; Printf.sprintf "progress, f=%d" max_crashes;
        string_of_int (metric "configs");
        Printf.sprintf "wait-free, solo bound %d" (metric "solo_bound");
        check ("E15 " ^ name)
          (match expect_bound with
          | Some b -> metric "solo_bound" = b
          | None -> true);
      ]
    | Verdict.Refuted { reason; _ } ->
      [
        name; Printf.sprintf "progress, f=%d" max_crashes; "-"; reason;
        check ("E15 " ^ name) false;
      ]
    | Verdict.Limited _ ->
      [
        name; Printf.sprintf "progress, f=%d" max_crashes; "-";
        "exploration truncated"; check ("E15 " ^ name) false;
      ]
  in
  let alg2_progress =
    let store, t = Alg2.alloc Store.empty ~k:3 ~one_shot:true in
    let programs =
      List.init 3 (fun i -> Alg2.propose t ~i (Value.Int (100 + i)))
    in
    progress_row "Alg 2 (k=3) wait-freedom" ~expect_bound:(Some 1) store
      programs ~max_crashes:2
  in
  let alg5_progress =
    let store, t = Alg5.alloc Store.empty ~k:3 () in
    let programs =
      List.init 3 (fun i -> Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    progress_row "Alg 5 (k=3) wait-freedom" ~expect_bound:None store programs
      ~max_crashes:1
  in
  (* A deliberately lock-free-only construction must produce a
     counterexample schedule: the spinner solo-runs forever. *)
  let spinner_row =
    let store, reg = Store.alloc Store.empty Subc_objects.Register.model_bot in
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
    match Progress.check_wait_free store ~programs:[ spinner; writer ] with
    | Verdict.Refuted { reason; _ }
      when String.length reason >= 9 && String.sub reason 0 9 = "process 0" ->
      [
        "lock-free spinner"; "progress, f=0"; "-";
        "NOT wait-free (P0 solo-spins)"; check "E15 spinner" true;
      ]
    | Verdict.Refuted { reason; _ } ->
      [
        "lock-free spinner"; "progress, f=0"; "-"; reason;
        check "E15 spinner" false;
      ]
    | Verdict.Proved _ | Verdict.Limited _ ->
      [
        "lock-free spinner"; "progress, f=0"; "-"; "no counterexample (?)";
        check "E15 spinner" false;
      ]
  in
  (* BG simulation: a crashed simulator blocks at most one simulated
     process — the surviving simulator still decides >= m-1 of them. *)
  let bg_row =
    let simulators = 2 and m = 3 in
    let runs = ref 0 and ok = ref 0 and blocked_seen = ref 0 in
    List.iter
      (fun seed ->
        List.iter
          (fun s ->
            incr runs;
            let codes =
              List.init m (fun p ->
                  Subc_bgsim.Sim_code.write_then_snapshot
                    (Value.Int (100 + p)) Fun.id)
            in
            let store, bg = Subc_bgsim.Bg.alloc Store.empty ~simulators ~codes in
            let programs =
              List.init simulators (fun me -> Subc_bgsim.Bg.simulate bg ~me)
            in
            let config = Config.make store programs in
            let r =
              Runner.run
                (Runner.Crash_at { crashes = [ (s, 1) ]; seed = Some seed })
                config
            in
            match Config.decision r.Runner.final 0 with
            | Some (Value.Vec views) ->
              let undecided =
                List.length (List.filter Value.is_bot views)
              in
              if undecided > 0 then incr blocked_seen;
              if r.Runner.completed && undecided <= 1 then incr ok
            | _ -> ())
          (List.init 12 (fun s -> s)))
      (seeds 25);
    [
      "BG (2 sims, m=3), sim 1 dies"; "crash-at-step sweep";
      string_of_int !runs;
      Printf.sprintf "%d/%d runs block <= 1 simulated (%d blocked some)" !ok
        !runs !blocked_seen;
      check "E15 bg" (!ok = !runs);
    ]
  in
  table
    ~title:
      "E15. Crash-resilience matrix: first-class crash faults, exhaustive \
       sweeps and wait-freedom certificates"
    ~header:[ "instance"; "crash model"; "states/runs"; "outcome"; "verdict" ]
    (alg2_rows
    @ [ alg5_row; alg2_progress; alg5_progress; spinner_row; bg_row ])

(* ----------------------------------------------------------------- E16 *)

(* Reduction-ratio table: the same instances explored with and without
   symmetry quotienting + source sets.  Two ratios are reported because
   they bound different resources: visited {e states} (capped by the group
   order — rotations give at most 3x at k=3) and {e transitions} (state
   expansions, where source sets add their savings on top).  All counts are
   deterministic, so the ratios are exact reproduction targets, not
   timings. *)

let e16 () =
  let module Sc = Subc_objects.Set_consensus_obj in
  let group_order n = function
    | `Full -> List.length (Symmetry.all_perms n)
    | `Rotations -> n
    | `Trivial -> 1
  in
  let totals = ref (0, 0, 0, 0) in
  let ratios = ref [] in
  let row name ~f ~group ~n config =
    let base = Search.iter_terminals
      ~options:Search.(default |> with_max_crashes f)
      config ~f:(fun _ _ -> ()) in
    let sym = Symmetry.standard ~n ~input_base:100 group in
    let full =
      Search.iter_terminals
        ~options:
          Search.(
            default |> with_max_crashes f
            |> with_reduction (Explore.full_reduction sym))
        config
        ~f:(fun _ _ -> ())
    in
    let ratio a b = float_of_int a /. float_of_int (max 1 b) in
    let s_ratio = ratio base.Explore.states full.Explore.states in
    let t_ratio = ratio base.Explore.transitions full.Explore.transitions in
    let tag = Printf.sprintf "e16.%s.f%d" name f in
    Subc_obs.Metrics.set_gauge (tag ^ ".states_ratio") s_ratio;
    Subc_obs.Metrics.set_gauge (tag ^ ".transitions_ratio") t_ratio;
    ratios := (tag, t_ratio) :: !ratios;
    let bs, bt, fs, ft = !totals in
    totals :=
      ( bs + base.Explore.states, bt + base.Explore.transitions,
        fs + full.Explore.states, ft + full.Explore.transitions );
    [
      name;
      Printf.sprintf "f=%d, |G|=%d" f (group_order n group);
      Printf.sprintf "%d / %d" base.Explore.states full.Explore.states;
      Printf.sprintf "%d / %d" base.Explore.transitions full.Explore.transitions;
      Printf.sprintf "%.2fx" s_ratio;
      Printf.sprintf "%.2fx" t_ratio;
      check
        (Printf.sprintf "E16 %s f=%d" name f)
        ((not base.Explore.limited)
        && (not full.Explore.limited)
        && full.Explore.states <= base.Explore.states
        && full.Explore.transitions <= base.Explore.transitions
        && full.Explore.terminals > 0
        && full.Explore.terminals <= base.Explore.terminals);
    ]
  in
  let alg2_config () =
    let store, t = Alg2.alloc Store.empty ~k:3 ~one_shot:true in
    let programs =
      List.init 3 (fun i -> Alg2.propose t ~i (Value.Int (100 + i)))
    in
    Config.make store programs
  in
  let alg5_config () =
    let store, t = Alg5.alloc Store.empty ~k:3 () in
    let programs =
      List.init 3 (fun i -> Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    Config.make store programs
  in
  let sc_config () =
    let store, h = Store.alloc Store.empty (Sc.model ~n:3 ~k:2) in
    let programs =
      List.init 3 (fun i -> Sc.propose h (Value.Int (100 + i)))
    in
    Config.make store programs
  in
  let chained_sc_config () =
    let store, ha = Store.alloc Store.empty (Sc.model ~n:3 ~k:2) in
    let store, hb = Store.alloc store (Sc.model ~n:3 ~k:2) in
    let programs =
      List.init 3 (fun i ->
          Program.bind
            (Sc.propose ha (Value.Int (100 + i)))
            (fun r -> Sc.propose hb r))
    in
    Config.make store programs
  in
  let wrn_config () =
    let store, h = Store.alloc Store.empty (Subc_objects.One_shot_wrn.model ~k:3) in
    let programs =
      List.init 3 (fun i ->
          Subc_objects.One_shot_wrn.wrn h i (Value.Int (100 + i)))
    in
    Config.make store programs
  in
  let rows =
    List.map
      (fun f -> row "Alg 2 (k=3)" ~f ~group:`Rotations ~n:3 (alg2_config ()))
      [ 0; 1; 2 ]
    @ List.map
        (fun f -> row "Alg 5 (k=3)" ~f ~group:`Rotations ~n:3 (alg5_config ()))
        [ 0; 1 ]
    @ List.map
        (fun f -> row "set-consensus (3,2)" ~f ~group:`Full ~n:3 (sc_config ()))
        [ 0; 1 ]
    @ List.map
        (fun f ->
          row "chained set-consensus" ~f ~group:`Full ~n:3 (chained_sc_config ()))
        [ 0; 1 ]
    @ [ row "1sWRN (k=3)" ~f:0 ~group:`Rotations ~n:3 (wrn_config ()) ]
  in
  let bs, bt, fs, ft = !totals in
  let agg_states = float_of_int bs /. float_of_int (max 1 fs) in
  let agg_trans = float_of_int bt /. float_of_int (max 1 ft) in
  Subc_obs.Metrics.set_gauge "e16.aggregate.states_ratio" agg_states;
  Subc_obs.Metrics.set_gauge "e16.aggregate.transitions_ratio" agg_trans;
  let agg_row =
    [
      "aggregate"; "-";
      Printf.sprintf "%d / %d" bs fs;
      Printf.sprintf "%d / %d" bt ft;
      Printf.sprintf "%.2fx" agg_states;
      Printf.sprintf "%.2fx" agg_trans;
      (* The counts are deterministic, so these thresholds are exact
         reproduction targets: the dominant Alg 5 f=1 row keeps >= 4.5x
         fewer state expansions (crash-terminal configurations retain
         their stores in the memo key — they are revivable under a
         recovery budget — which costs a little merging on the f>=1
         rows); states are capped by the group order (rotations give at
         most 3x on the WRN rows), so the aggregate states ratio sits
         near that ceiling. *)
      check "E16 aggregate"
        (agg_trans >= 3.5 && agg_states >= 3.0
        && List.assoc "e16.Alg 5 (k=3).f1" !ratios >= 4.5);
    ]
  in
  table
    ~title:
      "E16. Reduction ratios: symmetry quotienting + source sets vs the \
       plain exhaustive search (base / reduced; deterministic counts)"
    ~header:
      [ "instance"; "crash, group"; "states"; "transitions"; "states x";
        "transitions x"; "verdict" ]
    (rows @ [ agg_row ])

(* ------------------------------------------------------------------ E17 *)

(* Multicore scaling: every domain count must reproduce the jobs-1
   counts bit-for-bit (that part is asserted); the
   timing columns are informational — wall-clock speedup is bounded by
   the host's core count, which the table header records. *)
let e17 () =
  let instance name config ~max_crashes ~reduction =
    let explore jobs =
      let t0 = Unix.gettimeofday () in
      let options =
        Search.(
          default |> with_max_crashes max_crashes |> with_jobs jobs
          |> with_reduction reduction)
      in
      let stats = Search.iter_terminals ~options config ~f:(fun _ _ -> ()) in
      (stats, Unix.gettimeofday () -. t0)
    in
    let base, base_secs = explore 1 in
    List.map
      (fun jobs ->
        let stats, secs = explore jobs in
        let agree =
          stats.Explore.states = base.Explore.states
          && stats.Explore.transitions = base.Explore.transitions
          && stats.Explore.terminals = base.Explore.terminals
          && stats.Explore.hung_terminals = base.Explore.hung_terminals
          && stats.Explore.crashed_terminals = base.Explore.crashed_terminals
        in
        let secs = if jobs = 1 then base_secs else secs in
        [
          name;
          string_of_int jobs;
          string_of_int stats.Explore.states;
          string_of_int stats.Explore.terminals;
          Printf.sprintf "%.3fs" secs;
          Printf.sprintf "%.0f" (float_of_int stats.Explore.states /. secs);
          Printf.sprintf "%.2fx" (base_secs /. secs);
          check (Printf.sprintf "E17 %s jobs=%d counts" name jobs) agree;
        ])
      [ 1; 2; 4; 8 ]
  in
  let alg2_rows =
    let k = 4 in
    let store, t = Alg2.alloc Store.empty ~k ~one_shot:true in
    let programs =
      List.init k (fun i -> Alg2.propose t ~i (Value.Int (100 + i)))
    in
    instance "Alg 2 (k=4), f=1"
      (Config.make store programs)
      ~max_crashes:1 ~reduction:Explore.no_reduction
  in
  let alg5_rows =
    let store, t = Alg5.alloc Store.empty ~k:3 () in
    let programs =
      List.init 3 (fun i -> Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    instance "Alg 5 (k=3), f=1"
      (Config.make store programs)
      ~max_crashes:1 ~reduction:Explore.no_reduction
  in
  let alg5_sym_rows =
    let store, t = Alg5.alloc Store.empty ~k:3 () in
    let programs =
      List.init 3 (fun i -> Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    let sym = Alg5.symmetry t ~input_base:100 () in
    instance "Alg 5 (k=3), f=1, sym"
      (Config.make store programs)
      ~max_crashes:1
      ~reduction:(Explore.with_symmetry sym)
  in
  table
    ~title:
      (let host_domains = Domain.recommended_domain_count () in
       (* A single-core host can only measure synchronization
          overhead, so the title says which kind of run this was. *)
       let mode = if host_domains > 1 then "parallel" else "overhead-only" in
       Printf.sprintf
         "E17. Multicore scaling: counts at jobs N vs jobs 1 \
          (identical by construction, asserted); host offers %d domain(s) \
          [mode: %s], which bounds any wall-clock speedup"
         host_domains mode)
    ~header:
      [ "instance"; "jobs"; "states"; "terminals"; "wall"; "states/s";
        "speedup"; "verdict" ]
    (alg2_rows @ alg5_rows @ alg5_sym_rows)

(* ------------------------------------------------------------------ E18 *)

(* Recoverable consensus (the crash-recovery model of Golab–Ramaraju,
   separations per Ovens 2024): shared objects keep their state across a
   crash but a recovered process restarts its program from the top.  The
   readable one-shot winners of the classical hierarchy — test-and-set,
   fetch-and-add, swap, queue — lose their 2-process consensus power the
   moment one recovery is allowed: a recovered winner re-runs the
   competition, now observes the loser's token, and adopts the loser's
   value while the loser adopted the winner's.  compare-and-swap and
   consensus objects are self-verifying (re-running returns the first
   committed value) and keep solving at every budget; registers solve
   nothing either way.  Each cell is an exhaustive model-checker verdict
   over every schedule, crash pattern and recovery pattern within the
   budgets (n = 2, crash budget max(n−1, r)); every cell is asserted
   against the expected separation table. *)
let e18 () =
  let module R = Subc_check.Recoverable in
  let budgets = [ 0; 1; 2 ] in
  let cell family r =
    let got =
      match R.verdict family ~n:2 ~max_recoveries:r with
      | Verdict.Proved _ -> `Proved
      | Verdict.Refuted _ -> `Refuted
      | Verdict.Limited _ -> `Limited
    in
    let expected =
      (R.expected family ~max_recoveries:r
        :> [ `Proved | `Refuted | `Limited ])
    in
    let word =
      match got with
      | `Proved -> "solves"
      | `Refuted -> "fails"
      | `Limited -> "unknown"
    in
    (word, got = expected)
  in
  let rows =
    List.map
      (fun family ->
        let cells = List.map (cell family) budgets in
        let ok = List.for_all snd cells in
        (R.family_name family :: List.map fst cells)
        @ [ check (Printf.sprintf "E18 %s" (R.family_name family)) ok ])
      R.all_families
  in
  table
    ~title:
      "E18. Recoverable consensus: which families keep their 2-process \
       consensus power under crash-recovery (exhaustive, n=2; r = recovery \
       budget; crash budget max(1, r))"
    ~header:
      ("object family"
      :: List.map (Printf.sprintf "r=%d") budgets
      @ [ "verdict" ])
    rows

(* ------------------------------------------------------------------ E19 *)

(* Source-set reduction under work stealing: Algorithm 5 (k=3) with a
   one-crash budget, explored unreduced / symmetry-only / full (symmetry
   + source sets) at 1, 2 and 4 domains.  Three properties are asserted:
   (1) determinism — per reduction, states/transitions/terminal counts are
   identical at every domain count (the (state, sleep)-keyed claim table
   reproduces the sequential search bit-for-bit, stolen subtrees
   included); (2) identical verdicts — every cell proves the E15
   linearizability property (crashed participants = incomplete
   operations); (3) strength — the full reduction explores at least 3x
   fewer transitions than the unreduced baseline.  The marginal factor
   over symmetry alone is far smaller (the two reductions overlap: most
   interleavings a sleep set prunes are also collapsed by
   canonicalization) but must stay strictly above 1. *)
let e19 () =
  let k = 3 in
  let config () =
    let store, t = Alg5.alloc Store.empty ~k () in
    let programs =
      List.init k (fun i -> Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    Config.make store programs
  in
  let ops i = Op.make "wrn" [ Value.Int i; Value.Int (100 + i) ] in
  let spec = Subc_objects.One_shot_wrn.model ~k in
  let sym () = Symmetry.standard ~n:k ~input_base:100 `Rotations in
  let reductions =
    [
      ("none", Explore.no_reduction);
      ("symmetry", Explore.with_symmetry (sym ()));
      ("full", Explore.full_reduction (sym ()));
    ]
  in
  let jobs_axis = [ 1; 2; 4 ] in
  let explore reduction jobs =
    let bad = ref 0 in
    let on_terminal final trace =
      let history = Lin.history ~ops final trace in
      if Lin.check ~spec history = None then incr bad
    in
    let options =
      Search.(
        default |> with_max_crashes 1 |> with_jobs jobs
        |> with_reduction reduction)
    in
    let stats = Search.iter_terminals ~options (config ()) ~f:on_terminal in
    (stats, !bad = 0 && not stats.Explore.limited)
  in
  let cells =
    List.map
      (fun (name, red) ->
        (name, List.map (fun jobs -> (jobs, explore red jobs)) jobs_axis))
      reductions
  in
  let same (a : Explore.stats) (b : Explore.stats) =
    a.Explore.states = b.Explore.states
    && a.Explore.transitions = b.Explore.transitions
    && a.Explore.terminals = b.Explore.terminals
    && a.Explore.hung_terminals = b.Explore.hung_terminals
    && a.Explore.crashed_terminals = b.Explore.crashed_terminals
    && a.Explore.source_skips = b.Explore.source_skips
  in
  let stats_of name = fst (snd (List.hd (List.assoc name cells))) in
  let rows =
    List.map
      (fun (name, per_jobs) ->
        let s1, _ = snd (List.hd per_jobs) in
        let deterministic =
          List.for_all (fun (_, (s, _)) -> same s1 s) per_jobs
        in
        let proved = List.for_all (fun (_, (_, ok)) -> ok) per_jobs in
        Subc_obs.Metrics.set_gauge
          (Printf.sprintf "e19.%s.transitions" name)
          (float_of_int s1.Explore.transitions);
        [
          name;
          string_of_int s1.Explore.states;
          string_of_int s1.Explore.transitions;
          string_of_int s1.Explore.terminals;
          (if deterministic then "identical @ jobs 1/2/4" else "DIVERGED");
          check
            (Printf.sprintf "E19 %s" name)
            (deterministic && proved);
        ])
      cells
  in
  let base = stats_of "none" in
  let symmetry = stats_of "symmetry" in
  let full = stats_of "full" in
  let ratio a b =
    float_of_int a.Explore.transitions
    /. float_of_int (max 1 b.Explore.transitions)
  in
  let r_none = ratio base full and r_sym = ratio symmetry full in
  Subc_obs.Metrics.set_gauge "e19.ratio.full_vs_none" r_none;
  Subc_obs.Metrics.set_gauge "e19.ratio.full_vs_symmetry" r_sym;
  let ratio_row =
    [
      "full vs none / vs symmetry"; "-";
      Printf.sprintf "%.2fx / %.2fx" r_none r_sym;
      "-"; "-";
      check "E19 ratios"
        (r_none >= 3.0 && r_sym > 1.0
        && symmetry.Explore.terminals = full.Explore.terminals
        && symmetry.Explore.hung_terminals = full.Explore.hung_terminals
        && symmetry.Explore.crashed_terminals = full.Explore.crashed_terminals);
    ]
  in
  table
    ~title:
      "E19. Source sets under work stealing: Alg 5 (k=3), f=1 — counts \
       deterministic at jobs 1/2/4, verdicts identical, transition \
       reduction vs unreduced >= 3x"
    ~header:
      [ "reduction"; "states"; "transitions"; "terminals"; "jobs 1/2/4";
        "verdict" ]
    (rows @ [ ratio_row ])

(* E21: incremental fingerprinting on alg2, alg5 and the 1sWRN harness
   at k=3; each cell explores fingerprinted and paranoid (exact keys, the
   reference) at jobs 1 and 4.  The claim is exactness: identical states,
   transitions and terminals between the two per family x reduction x
   jobs, with the unreduced lanes doing O(1) patches (fp.patches ~
   transitions, fp.refolds ~ 1 per search) and a live frontier memory
   gauge. *)
let e21 () =
  let alg2_harness () =
    let store, t = Alg2.alloc Store.empty ~k:3 ~one_shot:true in
    ( store,
      List.init 3 (fun i -> Alg2.propose t ~i (Value.Int (100 + i))),
      Alg2.symmetry t ~input_base:100 () )
  in
  let alg5_harness () =
    let store, t = Alg5.alloc Store.empty ~k:3 () in
    ( store,
      List.init 3 (fun i -> Alg5.wrn t ~i (Value.Int (100 + i))),
      Alg5.symmetry t ~input_base:100 () )
  in
  let wrn_harness () =
    let store, h =
      Store.alloc Store.empty (Subc_objects.One_shot_wrn.model ~k:3)
    in
    ( store,
      List.init 3 (fun i ->
          Subc_objects.One_shot_wrn.wrn h i (Value.Int (100 + i))),
      Symmetry.standard ~n:3 ~input_base:100 `Rotations )
  in
  let metric name =
    match Subc_obs.Metrics.find name with Some v -> v | None -> 0.
  in
  let counter_names = [ "fp.patches"; "fp.refolds" ] in
  let run harness reduction ~paranoid jobs =
    let store, programs, sym = harness () in
    let reduction =
      match reduction with
      | `None -> Explore.no_reduction
      | `Full -> Explore.full_reduction sym
    in
    let options =
      Search.(
        default |> with_max_crashes 1 |> with_reduction reduction
        |> with_paranoid paranoid |> with_jobs jobs)
    in
    let before = List.map metric counter_names in
    let t0 = Unix.gettimeofday () in
    let stats =
      Search.iter_terminals ~options
        (Config.make store programs)
        ~f:(fun _ _ -> ())
    in
    let secs = Unix.gettimeofday () -. t0 in
    let deltas = List.map2 ( -. ) (List.map metric counter_names) before in
    (stats, secs, deltas)
  in
  let counts (s : Explore.stats) =
    ( s.Explore.states,
      s.Explore.transitions,
      s.Explore.terminals,
      s.Explore.hung_terminals,
      s.Explore.crashed_terminals )
  in
  let rows =
    List.concat_map
      (fun (family, harness) ->
        List.concat_map
          (fun (rname, reduction) ->
            List.map
              (fun jobs ->
                let inc_stats, inc_secs, inc_deltas =
                  run harness reduction ~paranoid:false jobs
                in
                let exact_stats, exact_secs, _ =
                  run harness reduction ~paranoid:true jobs
                in
                let patches = List.nth inc_deltas 0
                and refolds = List.nth inc_deltas 1 in
                let inc_rate =
                  float_of_int inc_stats.Explore.states /. max 1e-9 inc_secs
                and exact_rate =
                  float_of_int exact_stats.Explore.states /. max 1e-9 exact_secs
                in
                List.iter
                  (fun (k, v) ->
                    Subc_obs.Metrics.set_gauge
                      (Printf.sprintf "e21.%s.%s.jobs%d.%s" family rname jobs
                         k)
                      v)
                  [
                    ("states", float_of_int inc_stats.Explore.states);
                    ("fp_patches", patches); ("fp_refolds", refolds);
                    ( "frontier_bytes",
                      float_of_int inc_stats.Explore.frontier_bytes );
                    ("inc_states_per_sec", inc_rate);
                    ("paranoid_states_per_sec", exact_rate);
                  ];
                let ok =
                  counts inc_stats = counts exact_stats
                  && inc_stats.Explore.frontier_bytes > 0
                  &&
                  (* On the unreduced lanes the carried hash is live:
                     one patch per transition, re-folds only at roots
                     (jobs > 1 re-folds once per seeded root). *)
                  match rname with
                  | "none" ->
                    patches = float_of_int inc_stats.Explore.transitions
                    && refolds >= 1.
                    && refolds <= float_of_int (max 1 (8 * jobs))
                  | _ -> true
                in
                [
                  family; rname; string_of_int jobs;
                  string_of_int inc_stats.Explore.states;
                  string_of_int inc_stats.Explore.transitions;
                  Printf.sprintf "%.0f" patches;
                  Printf.sprintf "%.0f" refolds;
                  string_of_int inc_stats.Explore.frontier_bytes;
                  Printf.sprintf "%.0fk/s" (inc_rate /. 1e3);
                  Printf.sprintf "%.0fk/s" (exact_rate /. 1e3);
                  check
                    (Printf.sprintf "E21 %s %s jobs=%d" family rname jobs)
                    ok;
                ])
              [ 1; 4 ])
          [ ("none", `None); ("full", `Full) ])
      [
        ("alg2 k=3", alg2_harness);
        ("alg5 k=3", alg5_harness);
        ("1swrn k=3", wrn_harness);
      ]
  in
  table
    ~title:
      "E21. Incremental fingerprints: f=1 — identical spaces \
       fingerprinted and under paranoid exact keys at jobs 1 and 4; O(1) \
       patches replace per-state re-folds"
    ~header:
      [ "family"; "reduction"; "jobs"; "states"; "transitions"; "patches";
        "refolds"; "frontier B"; "inc speed"; "paranoid speed"; "verdict" ]
    rows

(* ------------------------------------------------------------ scaling *)

let scaling () =
  let explore_stats store programs =
    let config = Config.make store programs in
    let t0 = Sys.time () in
    let stats = Search.iter_terminals config ~f:(fun _ _ -> ()) in
    (stats, Sys.time () -. t0)
  in
  let alg2_row k =
    let store, t = Alg2.alloc Store.empty ~k ~one_shot:true in
    let programs =
      List.init k (fun i -> Alg2.propose t ~i (Value.Int (100 + i)))
    in
    let stats, dt = explore_stats store programs in
    [
      Printf.sprintf "Algorithm 2, k=%d" k;
      string_of_int stats.Explore.states;
      string_of_int stats.Explore.terminals;
      string_of_int stats.Explore.max_depth;
      Printf.sprintf "%.2fs" dt;
    ]
  in
  let alg5_row k =
    let store, t = Alg5.alloc Store.empty ~k () in
    let programs =
      List.init k (fun i -> Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    let stats, dt = explore_stats store programs in
    [
      Printf.sprintf "Algorithm 5, k=%d (full)" k;
      string_of_int stats.Explore.states;
      string_of_int stats.Explore.terminals;
      string_of_int stats.Explore.max_depth;
      Printf.sprintf "%.2fs" dt;
    ]
  in
  table
    ~title:
      "Scaling: canonical state-space sizes the model checker covers \
       (substitution S1's verification dividend)"
    ~header:[ "instance"; "states"; "terminals"; "depth"; "time" ]
    ([ alg2_row 3; alg2_row 4; alg2_row 5; alg2_row 6 ]
    @ [ alg5_row 2; alg5_row 3; alg5_row 4 ])

let run_all () =
  Format.printf
    "=== Experiment tables (the paper has no tables/figures; these \
     reproduce its theorems — see EXPERIMENTS.md) ===@.";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e18 ();
  e19 ();
  e21 ();
  scaling ();
  Format.printf "@.=== experiments complete: %s ===@."
    (if !failures = 0 then "ALL PASS"
     else Printf.sprintf "%d FAILURES" !failures);
  !failures = 0

(* Single-experiment entry points for the CI bench smoke job. *)
let run_one f =
  let before = !failures in
  f ();
  !failures = before

let run_e15 () = run_one e15
let run_e16 () = run_one e16
let run_e17 () = run_one e17
let run_e18 () = run_one e18
let run_e19 () = run_one e19
let run_e21 () = run_one e21
