(* Property-based tests (qcheck): invariants over random parameters,
   schedules and operation sequences. *)
open Subc_sim
module Task = Subc_tasks.Task
module Harness = Subc_check.Harness
module Registry = Subc_analysis.Registry

let to_alcotest = QCheck_alcotest.to_alcotest

(* Reference sequential WRN_k: Algorithm 1 executed on a plain array. *)
let reference_wrn ~k ops =
  let a = Array.make k Value.Bot in
  List.map
    (fun (i, v) ->
      a.(i) <- Value.Int v;
      a.((i + 1) mod k))
    ops

let wrn_matches_reference =
  QCheck.Test.make ~name:"WRN object = Algorithm 1 reference" ~count:200
    QCheck.(
      pair (int_range 2 6)
        (small_list (pair small_nat (int_range 1 100))))
    (fun (k, raw_ops) ->
      let ops = List.map (fun (i, v) -> (i mod k, v)) raw_ops in
      let model = Subc_objects.Wrn.model ~k in
      let responses =
        List.fold_left
          (fun (state, acc) (i, v) ->
            match
              model.Obj_model.apply state
                (Op.make "wrn" [ Value.Int i; Value.Int v ])
            with
            | [ (state', r) ] -> (state', r :: acc)
            | _ -> QCheck.assume_fail ())
          (model.Obj_model.init, [])
          ops
        |> snd |> List.rev
      in
      responses = reference_wrn ~k ops)

(* Algorithm 2 under random schedules: validity + (k−1)-agreement for any
   k and any seed. *)
let alg2_random_schedules =
  QCheck.Test.make ~name:"Algorithm 2: (k−1)-agreement on random schedules"
    ~count:300
    QCheck.(pair (int_range 3 8) int)
    (fun (k, seed) ->
      let h = Registry.alg2 ~k ~crashes:0 in
      let r = Runner.run (Runner.Random seed) (Harness.root h) in
      h.explain r.Runner.final = None)

(* Algorithm 6 under random (n, k) and schedules: m-set consensus, every
   process deciding. *)
let alg6_random =
  QCheck.Test.make ~name:"Algorithm 6: m-set consensus on random (n,k)"
    ~count:200
    QCheck.(triple (int_range 2 12) (int_range 2 6) int)
    (fun (n, k, seed) ->
      let h = Registry.alg6 ~n ~k ~crashes:0 in
      let r = Runner.run (Runner.Random seed) (Harness.root h) in
      h.explain r.Runner.final = None)

(* Grid renaming: distinct in-range names for random distinct ids. *)
let renaming_random =
  QCheck.Test.make ~name:"grid renaming: distinct names, random ids" ~count:150
    QCheck.(pair (list_of_size (Gen.int_range 1 5) (int_range 0 1000)) int)
    (fun (raw_ids, seed) ->
      let ids = List.sort_uniq compare raw_ids in
      QCheck.assume (ids <> []);
      let k = List.length ids in
      let store, g = Subc_renaming.Grid_renaming.alloc Store.empty ~k in
      let programs =
        List.map
          (fun id ->
            Program.map
              (fun n -> Value.Int n)
              (Subc_renaming.Grid_renaming.rename g ~me:id))
          ids
      in
      let config = Config.make store programs in
      let r = Runner.run (Runner.Random seed) config in
      let names = Config.decisions r.Runner.final in
      List.length names = k
      && List.length (Task.distinct names) = k
      && List.for_all
           (fun v ->
             let n = Value.to_int v in
             0 <= n && n < Subc_renaming.Grid_renaming.bound ~k)
           names)

(* Sequential histories are always linearizable (soundness smoke test of
   the checker): run random register ops one process at a time. *)
let sequential_always_linearizable =
  QCheck.Test.make ~name:"checker accepts sequential register histories"
    ~count:150
    QCheck.(small_list (option (int_range 0 20)))
    (fun raw_ops ->
      let spec = Subc_objects.Register.model_bot in
      let _, records =
        List.fold_left
          (fun ((state, time), acc) op ->
            let op =
              match op with
              | Some v -> Op.make "write" [ Value.Int v ]
              | None -> Op.make "read" []
            in
            match spec.Obj_model.apply state op with
            | [ (state', r) ] ->
              ( (state', time + 2),
                {
                  Subc_check.Linearizability.proc = time;
                  op;
                  result = Some r;
                  inv = time;
                  res = time + 1;
                }
                :: acc )
            | _ -> QCheck.assume_fail ())
          ((spec.Obj_model.init, 0), [])
          raw_ops
      in
      Subc_check.Linearizability.check ~spec (List.rev records) <> None)

(* The (n,k)-set-consensus object under random adversaries: ≤ k distinct
   responses, all of them proposals. *)
let set_consensus_object_random =
  QCheck.Test.make ~name:"(n,k)-set-consensus object: k-agreement + validity"
    ~count:200
    QCheck.(triple (int_range 1 8) (int_range 1 4) int)
    (fun (n, k, seed) ->
      QCheck.assume (k < n);
      let h = Registry.set_consensus_object ~n ~k ~crashes:0 in
      let r = Runner.run (Runner.Random seed) (Harness.root h) in
      h.explain r.Runner.final = None)

(* Immediate snapshot views are totally ordered by containment on random
   schedules for random n. *)
let immediate_snapshot_random =
  QCheck.Test.make ~name:"immediate snapshot: containment, random n" ~count:100
    QCheck.(pair (int_range 2 5) int)
    (fun (n, seed) ->
      let store, is = Subc_rwmem.Immediate_snapshot.alloc Store.empty ~n in
      let programs =
        List.init n (fun me ->
            Subc_rwmem.Immediate_snapshot.run is ~me (Value.Int (100 + me)))
      in
      let config = Config.make store programs in
      let r = Runner.run (Runner.Random seed) config in
      let views = List.filter_map (Config.decision r.Runner.final) (List.init n Fun.id) in
      let in_view v p = not (Value.is_bot (Value.vec_get v p)) in
      let subset a b =
        List.for_all (fun p -> (not (in_view a p)) || in_view b p) (List.init n Fun.id)
      in
      List.for_all
        (fun a -> List.for_all (fun b -> subset a b || subset b a) views)
        views)

(* Algorithm 5 beyond the exhaustive sizes: random schedules for k up to 6,
   each run's history checked for linearizability. *)
let alg5_random_linearizable =
  QCheck.Test.make ~name:"Algorithm 5: linearizable on random schedules, k≤6"
    ~count:150
    QCheck.(pair (int_range 3 6) int)
    (fun (k, seed) ->
      let ops i = Op.make "wrn" [ Value.Int i; Harness.tok i ] in
      let spec = Subc_objects.One_shot_wrn.model ~k in
      let r = Runner.run (Runner.Random seed) (Harness.root (Registry.alg5 ~k)) in
      let history =
        Subc_check.Linearizability.history ~ops r.Runner.final r.Runner.trace
      in
      Subc_check.Linearizability.check ~spec history <> None)

(* The Section 5 precedence graph stays acyclic on random schedules for
   larger k than the exhaustive tests cover. *)
let alg5_graph_random =
  QCheck.Test.make ~name:"1sWRN precedence graph acyclic, random k≤8"
    ~count:200
    QCheck.(pair (int_range 3 8) int)
    (fun (k, seed) ->
      let r =
        Runner.run (Runner.Random seed)
          (Harness.root (Registry.one_shot_wrn_object ~k))
      in
      let results = List.init k (fun i -> Config.decision r.Runner.final i) in
      let g = Subc_core.Alg5_graph.of_results ~k results in
      Subc_core.Alg5_graph.neighbour_edges_exclusive g
      && Subc_core.Alg5_graph.acyclic g
      && Subc_core.Alg5_graph.has_source_and_sink g)

(* Safe agreement: agreement + validity on random schedules and sizes. *)
let safe_agreement_random =
  QCheck.Test.make ~name:"safe agreement: agreement+validity, random n≤6"
    ~count:200
    QCheck.(pair (int_range 1 6) int)
    (fun (slots, seed) ->
      let store, sa = Subc_bgsim.Safe_agreement.alloc Store.empty ~slots in
      let open Program.Syntax in
      let program me v =
        let* () = Subc_bgsim.Safe_agreement.join sa ~me v in
        let rec wait () =
          let* r = Subc_bgsim.Safe_agreement.resolve sa in
          match r with
          | Some d -> Program.return d
          | None ->
            let* () = Program.checkpoint (Value.Sym "w") in
            wait ()
        in
        wait ()
      in
      let inputs = List.init slots (fun i -> Value.Int (100 + i)) in
      let programs = List.mapi program inputs in
      let config = Config.make store programs in
      let r = Runner.run (Runner.Random seed) config in
      let os = Task.outcomes ~inputs r.Runner.final in
      Result.is_ok (Task.consensus.Task.check os)
      && Result.is_ok (Task.all_decided.Task.check os))

(* The tournament always elects exactly one leader. *)
let tournament_random =
  QCheck.Test.make ~name:"tournament: exactly one winner, random n≤8"
    ~count:200
    QCheck.(pair (int_range 1 8) int)
    (fun (n, seed) ->
      let store, t = Subc_classic.Tournament.alloc Store.empty ~n in
      let programs =
        List.init n (fun me ->
            Program.map (fun w -> Value.Bool w) (Subc_classic.Tournament.play t ~me))
      in
      let config = Config.make store programs in
      let r = Runner.run (Runner.Random seed) config in
      let winners =
        List.length
          (List.filter
             (fun i -> Config.decision r.Runner.final i = Some (Value.Bool true))
             (List.init n Fun.id))
      in
      winners = 1)

(* The universal construction agrees with a direct sequential replay: run
   random counter operations through it on a random schedule; the multiset
   of responses must match SOME permutation — we check the defining
   invariant instead: the number of "inc" responses equals the number of
   incs, and every read response is between 0 and #incs. *)
let universal_random =
  QCheck.Test.make ~name:"universal counter: reads within bounds, random n≤5"
    ~count:150
    QCheck.(pair (int_range 1 5) int)
    (fun (n, seed) ->
      let store, u =
        Subc_classic.Universal.alloc Store.empty ~n
          ~spec:Subc_objects.Counter_obj.model
      in
      (* Even processes inc, odd ones read. *)
      let op me = if me mod 2 = 0 then Op.make "inc" [] else Op.make "read" [] in
      let programs =
        List.init n (fun me -> Subc_classic.Universal.perform u ~me (op me))
      in
      let config = Config.make store programs in
      let r = Runner.run (Runner.Random seed) config in
      let incs = (n + 1) / 2 in
      List.for_all
        (fun me ->
          match Config.decision r.Runner.final me with
          | Some (Value.Int c) when me mod 2 = 1 -> 0 <= c && c <= incs
          | Some Value.Unit when me mod 2 = 0 -> true
          | _ -> false)
        (List.init n Fun.id))

(* MWMR register: sequential last-write-wins against a reference. *)
let mwmr_sequential_reference =
  QCheck.Test.make ~name:"MWMR register: sequential last-write-wins" ~count:150
    QCheck.(pair (int_range 1 4) (small_list (pair (int_range 0 3) (int_range 0 50))))
    (fun (writers, raw_ops) ->
      let ops = List.map (fun (w, v) -> (w mod writers, v)) raw_ops in
      let store, r = Subc_rwmem.Mwmr_impl.alloc Store.empty ~writers in
      let open Program.Syntax in
      let program =
        let* () =
          Program.iter_list
            (fun (w, v) -> Subc_rwmem.Mwmr_impl.write r ~me:w (Value.Int v))
            ops
        in
        Subc_rwmem.Mwmr_impl.read r
      in
      let config = Config.make store [ program ] in
      let result = Runner.run Runner.Round_robin config in
      let expected =
        match List.rev ops with
        | [] -> Value.Bot
        | (_, v) :: _ -> Value.Int v
      in
      Config.decision result.Runner.final 0 = Some expected)

(* Snapshot renaming names stay distinct under crashes too. *)
let renaming_crash_random =
  QCheck.Test.make ~name:"snapshot renaming: distinct names under crashes"
    ~count:100
    QCheck.(pair (int_range 2 4) int)
    (fun (k, seed) ->
      let store, s =
        Subc_renaming.Snapshot_renaming.alloc Store.empty ~slots:k
          ~snapshot:Subc_rwmem.Snapshot_api.primitive
      in
      let programs =
        List.init k (fun slot ->
            Program.map
              (fun n -> Value.Int n)
              (Subc_renaming.Snapshot_renaming.rename s ~slot ~id:(slot * 7)))
      in
      let config = Config.make store programs in
      let rng = Random.State.make [| seed |] in
      let prefix = Random.State.int rng 15 in
      let survivor = Random.State.int rng k in
      let before = Runner.run ~max_steps:prefix (Runner.Random seed) config in
      let after = Runner.run (Runner.Only [ survivor ]) before.Runner.final in
      let names = Config.decisions after.Runner.final in
      List.length (Task.distinct names) = List.length names)

(* The fused symmetry action: comparing and fingerprinting values under
   renamings without building the acted copies must agree with
   [Symmetry.act] followed by [compare] or by the [of_value] fold.  Values mix
   process ids in [0,n), proposals in [base, base+n), other integers,
   process-indexed vectors (length n) and vectors of other lengths, pairs
   and tags, nested.  The second value is either independent or a renamed
   copy of the first, so comparisons also run deep into ties. *)
let symmetry_action_fused =
  let base = 100 in
  let gen_value n =
    QCheck.Gen.(
      sized_size (int_bound 4)
      @@ fix (fun self size ->
             let leaf =
               frequency
                 [
                   (3, map Value.int (int_bound (n - 1)));
                   (3, map (fun i -> Value.Int (base + i)) (int_bound (n - 1)));
                   (1, map Value.int (int_range (-2) (base + n + 2)));
                   (1, oneofl [ Value.Bot; Value.Unit ]);
                   (1, map Value.bool bool);
                   (1, oneofl [ Value.Sym "a"; Value.Sym "b" ]);
                 ]
             in
             if size = 0 then leaf
             else
               frequency
                 [
                   (2, leaf);
                   (3, map Value.vec (list_repeat n (self (size - 1))));
                   ( 1,
                     map Value.vec
                       (list_size (int_bound (n + 1)) (self (size / 2))) );
                   (1, map2 Value.pair (self (size / 2)) (self (size / 2)));
                   ( 1,
                     map2
                       (fun s v -> Value.Tag (s, v))
                       (oneofl [ "t"; "u" ])
                       (self (size - 1)) );
                 ]))
  in
  let gen =
    QCheck.Gen.(
      int_range 3 4 >>= fun n ->
      oneofl [ ("rotations", `Rotations); ("full", `Full) ]
      >>= fun (grp_name, grp) ->
      bool >>= fun map_ids ->
      opt (return base) >>= fun input_base ->
      let sym = Symmetry.standard ~n ?input_base ~map_ids grp in
      let perm = oneofl (Symmetry.perms sym) in
      gen_value n >>= fun x ->
      perm >>= fun r ->
      frequency
        [ (1, gen_value n); (1, return (Symmetry.act sym r x)) ]
      >>= fun y ->
      perm >>= fun p ->
      perm >>= fun q -> return (sym, (n, grp_name, map_ids, input_base), x, y, p, q))
  in
  let print (_, (n, grp_name, map_ids, input_base), x, y, p, q) =
    let perm p = String.concat "," (Array.to_list (Array.map string_of_int p)) in
    Printf.sprintf "n=%d %s map_ids=%b base=%s x=%s y=%s p=[%s] q=[%s]" n
      grp_name map_ids
      (match input_base with Some b -> string_of_int b | None -> "none")
      (Value.to_string x) (Value.to_string y) (perm p) (perm q)
  in
  QCheck.Test.make ~name:"symmetry: fused compare/fingerprint = deep_act"
    ~count:1000 (QCheck.make ~print gen)
    (fun (sym, _, x, y, p, q) ->
      let sign d = compare d 0 in
      let act = Symmetry.act sym in
      sign (Symmetry.compare_acted sym p x q y)
      = sign (compare (act p x) (act q y))
      && Fingerprint.equal
           (Symmetry.fingerprint_acted sym p x)
           (Fingerprint.of_value (act p x)))

let suite =
  [
    ( "properties",
      List.map to_alcotest
        [
          wrn_matches_reference;
          alg2_random_schedules;
          alg6_random;
          renaming_random;
          sequential_always_linearizable;
          set_consensus_object_random;
          immediate_snapshot_random;
          alg5_random_linearizable;
          alg5_graph_random;
          safe_agreement_random;
          tournament_random;
          universal_random;
          mwmr_sequential_reference;
          renaming_crash_random;
          symmetry_action_fused;
        ] );
  ]
