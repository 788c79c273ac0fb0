(* The state-space reductions beyond the determinism matrix
   (test_determinism, which checks that every reduction level gives the
   same verdicts and the counts each reduction promises): source sets
   alone preserve the terminal set exactly, the canonicalization's
   properties, and the commute memo's overflow path. *)
open Subc_sim
open Helpers
module Cn = Subc_classic.Consensus_number

(* ---------------------------------------------------------------- *)
(* Source sets alone preserve the terminal set exactly (same terminal
   configurations, so the same decision multiset), not just the verdict,
   at every crash and recovery budget of the harness.  The recovery rows
   check the recovery/step diamonds [Explore] judges on the
   configuration itself.                                             *)

(* A recovery that erases a register another process writes and reads:
   process 1 writes 1 to a volatile register and decides what it reads
   back, process 0 reads a persistent one.  Recovering process 0 resets
   the volatile register, so it does not commute with process 1's write,
   and a search that slept the write across the recovery would miss the
   terminals where the recovery comes first. *)
let volatile_register_harness () =
  let module Register = Subc_objects.Register in
  let store, p = Store.alloc Store.empty Register.model_bot in
  let store, v =
    Store.alloc store
      (Obj_model.with_persist (fun _ -> Value.Bot) Register.model_bot)
  in
  terminating ~symmetry:None store
    [
      Register.read p;
      Program.Syntax.(
        let* () = Register.write v (Value.Int 1) in
        Register.read v);
    ]

let source_preserves_terminals () =
  List.iter
    (fun (name, h, budgets) ->
      List.iter
        (fun (f, r) ->
          let name = Printf.sprintf "%s f=%d r=%d" name f r in
          let collect reduction =
            let acc = ref [] in
            let stats =
              Search.iter_terminals
                ~options:
                  Search.(
                    default |> with_max_crashes f |> with_max_recoveries r
                    |> with_reduction reduction)
                (root h)
                ~f:(fun final _ ->
                  acc := (Config.decisions final, Config.key final) :: !acc)
            in
            (List.sort compare !acc, stats)
          in
          let base, bstats = collect Explore.no_reduction in
          let reduced, sstats = collect Explore.source_only in
          Alcotest.(check bool)
            (name ^ " complete") true
            ((not bstats.Explore.limited) && not sstats.Explore.limited);
          Alcotest.(check bool)
            (name ^ " terminal decisions identical")
            true
            (List.map fst base = List.map fst reduced);
          Alcotest.(check bool)
            (name ^ " terminal configurations identical")
            true
            (List.for_all2 (fun (_, a) (_, b) -> Value.equal a b) base reduced))
        budgets)
    [
      ("alg2", Registry.alg2 ~k:3 ~crashes:0, [ (0, 0) ]);
      ("set-consensus", Registry.set_consensus_object ~n:3 ~k:2 ~crashes:0, [ (0, 0) ]);
      ("alg5", Registry.alg5 ~k:3, [ (0, 0); (1, 1) ]);
      ("t&s", recovery_harness Cn.Test_and_set ~n:2 ~r:1, [ (1, 1) ]);
      ("queue", recovery_harness Cn.Queue ~n:2 ~r:2, [ (2, 2) ]);
      ("cas", recovery_harness Cn.Cas ~n:3 ~r:1, [ (2, 1) ]);
      ("volatile register", volatile_register_harness (), [ (1, 1) ]);
    ]

(* ---------------------------------------------------------------- *)
(* Properties of the canonicalization itself.                        *)

let compose p q = Array.init (Array.length p) (fun i -> p.(q.(i)))

(* The reference canonicalization, spelled out independently of
   [Symmetry]'s folds: every element's [key_under] tree, compared with
   polymorphic [compare]; the minimum key and every element achieving it,
   in group order. *)
let reference_minimizers sym c =
  let keyed =
    List.map (fun p -> (Symmetry.key_under sym p c, p)) (Symmetry.perms sym)
  in
  let key =
    List.fold_left
      (fun m (k, _) -> if compare k m < 0 then k else m)
      (fst (List.hd keyed)) keyed
  in
  ( key,
    List.filter_map
      (fun (k, p) -> if compare k key = 0 then Some p else None)
      keyed )

let perms_t = Alcotest.(list (array int))

(* The key a symmetry search claims with, recomputed from a reference
   key tree of [key_under]'s shape with the plain slot mixes: the
   homomorphic sum over the tree's store slots (one constant when the
   store is erased) and process slots, each process rebuilt from its
   status, recovery count and live history. *)
let hom_of_key ~n key =
  let fail () = Alcotest.failf "not a key tree: %a" Value.pp key in
  let ( ++ ) = Fingerprint.hom_add in
  let store_slot acc = function
    | Value.Pair (Value.Int h, st) -> acc ++ Fingerprint.mix_store_slot h st
    | _ -> fail ()
  in
  let dummy = Program.Return Value.Unit in
  let proc_slot (j, acc) = function
    | Value.Pair (status, Value.Pair (Value.Int recoveries, Value.Vec history))
      ->
      let status =
        match status with
        | Value.Tag ("done", v) -> Config.Terminated v
        | Value.Sym "run" -> Config.Running dummy
        | Value.Sym "recover" -> Config.Recovering dummy
        | Value.Sym "hung" -> Config.Hung
        | Value.Sym "crash" -> Config.Crashed
        | _ -> fail ()
      in
      ( j + 1,
        acc
        ++ Fingerprint.mix_proc_slot j
            { Config.status; history; steps = 0; recoveries } )
    | _ -> fail ()
  in
  match key with
  | Value.Pair (store, Value.Vec procs) ->
    let base = Fingerprint.hom_base ~n_procs:n in
    let acc =
      match store with
      | Value.Sym "terminal" -> base ++ Fingerprint.erased_store
      | Value.Vec slots -> List.fold_left store_slot base slots
      | _ -> fail ()
    in
    snd (List.fold_left proc_slot (0, acc) procs)
  | _ -> fail ()

(* For every reachable configuration c: the allocation-free path
   ([Symmetry.canonical_winner] and [image_fingerprint], what the
   explorer keys by) returns
   the reference winner and the whole reference minimizer coset, and its
   fingerprint is the sum of the slot mixes of the reference key
   ([hom_of_key]); the key-tree path and
   the [~paranoid] visited key are the reference key.  Also, for every
   group element pi, the canonical key is a lower bound on every
   key_under, and invariant under re-indexing the group by pi (group
   closure of the action).  Covered: rotations (Alg 2, Alg 5 with a
   crash), the full group (set consensus, with a crash and a recovery),
   and the identity group with erasure (terminal store erasure). *)
let canonicalization_sound () =
  List.iter
    (fun (name, h, max_crashes, max_recoveries) ->
      let sym = sym h in
      let perms = Symmetry.perms sym in
      let checked = ref 0 in
      let stats =
        Search.iter_reachable
          ~options:
            Search.(
              default |> with_max_crashes max_crashes
              |> with_max_recoveries max_recoveries)
          (root h) ~f:(fun c _ ->
            incr checked;
            let key, mins = reference_minimizers sym c in
            let g, fast_mins = Symmetry.canonical_winner sym c in
            let fp = Symmetry.image_fingerprint sym g c in
            Alcotest.check perms_t (name ^ ": minimizer coset") mins fast_mins;
            Alcotest.(check bool) (name ^ ": slot mixes of the key") true
              (Fingerprint.equal fp
                 (hom_of_key ~n:(Symmetry.n_procs sym) key));
            Alcotest.(check bool) (name ^ ": key-tree path") true
              (Symmetry.canonical_key sym c = (key, List.hd mins)
              && Symmetry.canonical_minimizers sym c = (key, mins));
            Alcotest.(check bool) (name ^ ": paranoid key") true
              (Fingerprint.key_equal (Fingerprint.Exact key)
                 (Explore.state_key ~paranoid:true
                    (Explore.with_symmetry sym) c));
            List.iter
              (fun p ->
                Alcotest.(check bool) (name ^ ": canonical is minimal") true
                  (compare key (Symmetry.key_under sym p c) <= 0);
                let translated =
                  List.map (fun q -> Symmetry.key_under sym (compose q p) c) perms
                in
                Alcotest.(check bool) (name ^ ": invariant under translation") true
                  (Value.equal key
                     (List.fold_left min (List.hd translated) translated)))
              perms)
      in
      Alcotest.(check bool) (name ^ ": visited some configurations") true
        (!checked > 0 && not stats.Explore.limited))
    [
      ("alg2 rotations", Registry.alg2 ~k:3 ~crashes:0, 0, 0);
      ("alg5 rotations f=1", Registry.alg5 ~k:3, 1, 0);
      ("set consensus full f=1 r=1", Registry.set_consensus_object ~n:3 ~k:2 ~crashes:0, 1, 1);
      ( "alg2 erasure only f=1",
        { (Registry.alg2 ~k:3 ~crashes:0) with symmetry = Some (Symmetry.erasure_only ~n:3) },
        1,
        0 );
    ]

(* For every reachable configuration, every group element g and every
   transition out of it: the child's key under g patched from the
   parent's ([Symmetry.patch_image], what a search carries to a child
   under its parent's winner) equals the child's image re-fold under g.
   Covered: rotations (Alg 5 with a crash), and the full group (set
   consensus with a crash and a recovery), where the transitions that
   crash, recover, finish a process (erasing its history) and reach a
   terminal without a crash (erasing the store) each occur. *)
let patch_agrees_with_refold () =
  List.iter
    (fun (name, h, max_crashes, max_recoveries) ->
      let sym = sym h in
      let kinds = Hashtbl.create 4 in
      let seen kind = Hashtbl.replace kinds kind () in
      let stats =
        Search.iter_reachable
          ~options:
            Search.(
              default |> with_max_crashes max_crashes
              |> with_max_recoveries max_recoveries)
          (root h) ~f:(fun c _ ->
            let succs =
              List.concat_map
                (fun i ->
                  List.map (fun (c', _, sl) -> (c', sl)) (Step.step_slots c i))
                (Config.running c)
              @ List.map
                  (fun (c', _, sl) -> (c', sl))
                  (Step.crash_successors_slots c)
              @ List.map
                  (fun (c', _, sl) -> (c', sl))
                  (Step.recover_successors_slots c)
            in
            for g = 0 to Symmetry.group_order sym - 1 do
              let fp = Symmetry.image_fingerprint sym g c in
              List.iter
                (fun (c', (sl : Step.slots)) ->
                  let i = sl.Step.sl_proc in
                  let before = c.Config.procs.(i).Config.status
                  and after = c'.Config.procs.(i).Config.status in
                  (match (before, after) with
                  | _, Config.Crashed -> seen "crash"
                  | Config.Crashed, _ -> seen "recovery"
                  | _, Config.Terminated _ -> seen "finish"
                  | _ -> ());
                  if Config.is_terminal c' && not (Config.any_crashed c') then
                    seen "store erased";
                  Alcotest.(check bool)
                    (name ^ ": patched key is the re-fold") true
                    (Fingerprint.equal
                       (Symmetry.patch_image sym g fp c sl c')
                       (Symmetry.image_fingerprint sym g c')))
                succs
            done)
      in
      Alcotest.(check bool) (name ^ ": complete") false stats.Explore.limited;
      let expected =
        (if max_crashes > 0 then [ "crash" ] else [])
        @ (if max_recoveries > 0 then [ "recovery" ] else [])
        @ [ "finish"; "store erased" ]
      in
      List.iter
        (fun kind ->
          Alcotest.(check bool) (name ^ ": some transition " ^ kind) true
            (Hashtbl.mem kinds kind))
        expected)
    [
      ("alg5 rotations f=1", Registry.alg5 ~k:3, 1, 0);
      ( "set consensus full f=1 r=1",
        Registry.set_consensus_object ~n:3 ~k:2 ~crashes:0,
        1,
        1 );
    ]

(* With symmetry off a search keys a node by the fingerprint it carries,
   patched from its parent's: for every reachable configuration and
   every child with the sleep set the source-set expansion gives it,
   [source_fingerprint_from] the child's re-fold is [source_fingerprint]
   (same key, same restricted sleep), and with an empty sleep the key is
   the plain [state_key]. *)
let carried_key_is_refold_key () =
  let h = Registry.alg5 ~k:3 in
  let r = Explore.source_only and max_crashes = 1 in
  let cache = Explore.commute_cache () in
  let sleeps = ref 0 in
  let stats =
    Search.iter_reachable
      ~options:Search.(default |> with_max_crashes max_crashes)
      (root h) ~f:(fun c _ ->
        let groups, _ =
          Explore.source_successors cache r ~pi:None ~max_crashes
            ~max_recoveries:0 c ~sleep:[]
        in
        List.iter
          (fun g ->
            List.iter
              (fun (c', _, _) ->
                let sleep = g.Explore.g_sleep in
                if sleep <> [] then incr sleeps;
                let fp, pi, restricted =
                  Explore.source_fingerprint r ~max_crashes c' ~sleep
                in
                let fp', pi', restricted' =
                  Explore.source_fingerprint_from
                    (Fingerprint.hom_of_config c')
                    r ~max_crashes c' ~sleep
                in
                Alcotest.(check bool) "same key" true (Fingerprint.equal fp fp');
                Alcotest.(check bool) "same renaming and sleep" true
                  (pi = pi' && restricted = restricted');
                let bare, _, _ =
                  Explore.source_fingerprint r ~max_crashes c' ~sleep:[]
                in
                Alcotest.(check bool) "empty sleep: the state key" true
                  (Fingerprint.key_equal (Fingerprint.Fp bare)
                     (Explore.state_key r c')))
              g.Explore.g_succs)
          groups)
  in
  Alcotest.(check bool) "complete" false stats.Explore.limited;
  Alcotest.(check bool) "some children inherit a sleep" true (!sleeps > 0)

(* Under symmetry the state key is the image fingerprint of the orbit's
   winner, and the paranoid key the canonical key tree, whichever member
   of the orbit is asked. *)
let symmetry_state_key_is_winner_image () =
  List.iter
    (fun (name, h) ->
      let sym = sym h in
      let r = Explore.with_symmetry sym in
      let stats =
        Search.iter_reachable
          ~options:Search.(default |> with_max_crashes 1)
          (root h) ~f:(fun c _ ->
            let g, _ = Symmetry.canonical_winner sym c in
            Alcotest.(check bool) (name ^ ": winner's image") true
              (Fingerprint.key_equal
                 (Fingerprint.Fp (Symmetry.image_fingerprint sym g c))
                 (Explore.state_key r c));
            Alcotest.(check bool) (name ^ ": paranoid key tree") true
              (Fingerprint.key_equal
                 (Fingerprint.Exact (fst (Symmetry.canonical_key sym c)))
                 (Explore.state_key ~paranoid:true r c)))
      in
      Alcotest.(check bool) (name ^ ": complete") false stats.Explore.limited)
    [
      ("alg5 rotations", Registry.alg5 ~k:3);
      ("set consensus full", Registry.set_consensus_object ~n:3 ~k:2 ~crashes:0);
    ]

(* The same orbit yields the same canonical key: check on configurations
   explicitly built from rotated harnesses (rotating which process gets
   which proposal is exactly the data action's input renaming). *)
let orbit_members_share_key () =
  let k = 3 in
  let harness rot =
    let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
    let programs =
      List.init k (fun i ->
          Subc_core.Alg2.propose t ~i (Value.Int (100 + ((i + rot) mod k))))
    in
    (Config.make store programs, Subc_core.Alg2.symmetry t ~input_base:100 ())
  in
  let keys =
    List.map
      (fun rot ->
        let config, sym = harness rot in
        fst (Symmetry.canonical_key sym config))
      [ 0; 1; 2 ]
  in
  match keys with
  | [ a; b; c ] ->
    Alcotest.check value "rot1 same canonical key" a b;
    Alcotest.check value "rot2 same canonical key" a c
  | _ -> assert false

(* ---------------------------------------------------------------- *)
(* The commute memo's overflow path: over every reachable state, a cache
   bounded at zero expands exactly as a default one — the same groups
   and the same inherited sleeps — while every insert it drops is
   counted.                                                          *)

let memo_eviction_counts () =
  let { store; programs; _ } = Registry.alg2 ~k:3 ~crashes:0 in
  let states = ref [] in
  ignore
    (Search.iter_reachable (Config.make store programs) ~f:(fun c _ ->
         states := c :: !states));
  (* What a search's counters read for a domain that used [cache]. *)
  let evictions cache =
    let c = Explore.fresh_counters () in
    Explore.add_commute c cache;
    c.Explore.memo_evictions
  in
  let starved = Explore.commute_cache ~bound:0 ()
  and fed = Explore.commute_cache () in
  let expand cache config =
    let groups, skips =
      Explore.source_successors cache Explore.source_only ~pi:None
        ~max_crashes:0 ~max_recoveries:0 config ~sleep:[]
    in
    (List.map (fun g -> (g.Explore.g_tr, g.Explore.g_sleep)) groups, skips)
  in
  List.iter
    (fun config ->
      Alcotest.(check bool)
        "memo starvation changes no expansion" true
        (expand starved config = expand fed config))
    !states;
  Alcotest.(check int) "no evictions at the default bound" 0 (evictions fed);
  Alcotest.(check bool) "dropped inserts are counted" true
    (evictions starved > 0)

let suite =
  [
    ( "reduction",
      [
        test "source sets preserve the terminal decision multiset"
          source_preserves_terminals;
        test "canonical key: minimal, achieved, translation-invariant"
          canonicalization_sound;
        test "a patched key is its re-fold, transition by transition"
          patch_agrees_with_refold;
        test "orbit members share a canonical key" orbit_members_share_key;
        test "commute memo overflow is counted and harmless"
          memo_eviction_counts;
        test "a carried fingerprint keys a node as its re-fold does"
          carried_key_is_refold_key;
        test "the symmetry state key is the winner's image"
          symmetry_state_key_is_winner_image;
      ] );
  ]
