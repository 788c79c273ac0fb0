(* Incremental (homomorphic) fingerprints, and the [Config.Delta]
   encoding of configurations.

   Soundness here is exact, not probabilistic: a successor differs from
   its parent in exactly the slots [Step.*_slots] reports, and each
   fingerprint lane is an abelian group over independent per-slot mixes,
   so patching the parent's hash must reproduce the child's full re-fold
   bit-for-bit.  The suite checks that identity over every reachable
   state of several families (process steps, crashes, recoveries), the
   group laws it rests on, the delta-chain materialization it travels
   with, and that [~paranoid] re-folds every configuration the
   wait-freedom checker's solo memo takes and fails loudly on a wrong
   patch.  Engine-level agreement of the fingerprinted search with the
   paranoid exact-key reference is a column of the determinism matrix
   (test_determinism). *)
open Subc_sim
open Helpers

let fp = Alcotest.testable Fingerprint.pp Fingerprint.equal

let families =
  [
    ("alg2/k2", Registry.alg2 ~k:2 ~crashes:0);
    ("alg2/k3", Registry.alg2 ~k:3 ~crashes:0);
    ("alg5/k2", Registry.alg5 ~k:2);
    ("1swrn/k3", Registry.one_shot_wrn_object ~k:3);
  ]

(* Every reachable configuration of a family under the given fault
   budgets, via the paranoid sequential explorer (exact keys and no
   reduction, so the enumeration itself does not depend on the
   fingerprints under test). *)
let reachable ?(max_crashes = 0) ?(max_recoveries = 0) harness =
  let acc = ref [] in
  ignore
    (Search.iter_reachable
      ~options:
        Search.(
          default |> with_max_crashes max_crashes
          |> with_max_recoveries max_recoveries |> with_paranoid true)
       (root harness) ~f:(fun c _ -> acc := c :: !acc));
  !acc

(* ---------------------------------------------------------------- *)
(* Group laws of the homomorphic combination.                        *)

let hom_group_laws () =
  let c = root (Registry.alg2 ~k:2 ~crashes:0) in
  let a = Fingerprint.hom_of_config c in
  let b = Fingerprint.mix_proc_slot 0 c.Config.procs.(0) in
  let d = Fingerprint.mix_proc_slot 1 c.Config.procs.(1) in
  Alcotest.check fp "sub inverts add" a Fingerprint.(hom_sub (hom_add a b) b);
  Alcotest.check fp "add commutes"
    Fingerprint.(hom_add a (hom_add b d))
    Fingerprint.(hom_add (hom_add a b) d);
  Alcotest.check fp "order of patches irrelevant"
    Fingerprint.(hom_add (hom_sub a b) d)
    Fingerprint.(hom_sub (hom_add a d) b);
  (* The whole-config fold is the base plus the sum of its slot mixes:
     removing every slot's contribution leaves exactly the base. *)
  let stripped =
    let acc = ref (Fingerprint.hom_of_config c) in
    Store.iter c.Config.store (fun h st ->
        acc := Fingerprint.(hom_sub !acc (mix_store_slot h st)));
    Array.iteri
      (fun i p -> acc := Fingerprint.(hom_sub !acc (mix_proc_slot i p)))
      c.Config.procs;
    !acc
  in
  Alcotest.check fp "fold = base + slot mixes" stripped
    (Fingerprint.hom_base ~n_procs:(Config.n_procs c))

(* ---------------------------------------------------------------- *)
(* Patched fingerprint == full re-fold, over every reachable state
   and every kind of transition (step, crash, recover).              *)

let check_patch_equals_refold name parent =
  let f = Fingerprint.hom_of_config parent in
  let check_succ (child, _what, slots) =
    let patched = Explore.patched_fingerprint parent f slots child in
    Alcotest.check fp
      (Printf.sprintf "%s: patch == refold" name)
      (Fingerprint.hom_of_config child)
      patched
  in
  List.iter
    (fun i ->
      List.iter
        (fun (c', e, sl) -> check_succ (c', `Step e, sl))
        (Step.step_slots parent i))
    (Config.running parent);
  List.iter
    (fun (c', i, sl) -> check_succ (c', `Crash i, sl))
    (Step.crash_successors_slots parent);
  List.iter
    (fun (c', i, sl) -> check_succ (c', `Recover i, sl))
    (Step.recover_successors_slots parent)

let patch_matrix () =
  List.iter
    (fun (name, harness) ->
      List.iter
        (fun (budget, max_crashes, max_recoveries) ->
          let states = reachable ~max_crashes ~max_recoveries harness in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s nonempty" name budget)
            true
            (List.length states > 1);
          List.iter
            (check_patch_equals_refold (name ^ "/" ^ budget))
            states)
        [ ("f0", 0, 0); ("f1", 1, 0); ("f1r1", 1, 1) ])
    families

(* ---------------------------------------------------------------- *)
(* Delta chains: materialize == the eagerly built configuration, and
   rebasing preserves that — exercised on every execution of a harness
   whose runs are longer than the rebase interval, so chains rebase.   *)

let delta_roundtrip () =
  let exercise name harness =
    (* Walk every execution depth-first carrying (eager config, delta),
       checking agreement at every node and counting rebases (an extend
       that comes back as a root). *)
    let rebases = ref 0 in
    let rec walk depth config delta =
      let materialized = Config.Delta.materialize delta in
      Alcotest.check fp
        (Printf.sprintf "%s: materialize == eager (depth %d)" name depth)
        (Fingerprint.hom_of_config config)
        (Fingerprint.hom_of_config materialized);
      Alcotest.(check bool)
        (name ^ ": chain below rebase interval")
        true
        (Config.Delta.links delta < Config.Delta.rebase_interval);
      List.iter
        (fun i ->
          List.iter
            (fun (c', _e, slots) ->
              let delta' =
                Config.Delta.extend delta
                  ~proc_sets:
                    [ (slots.Step.sl_proc, c'.Config.procs.(slots.Step.sl_proc)) ]
                  ~store_sets:slots.Step.sl_store
              in
              if Config.Delta.links delta' = 0 then incr rebases;
              walk (depth + 1) c' delta')
            (Step.step_slots config i))
        (Config.running config)
    in
    let config = root harness in
    walk 0 config (Config.Delta.root config);
    !rebases
  in
  (* Algorithm 5 at k=2 runs up to 11 steps, past the 8-link interval. *)
  Alcotest.(check bool) "alg5/k2 rebases at least once" true
    (exercise "alg5/k2" (Registry.alg5 ~k:2) > 0);
  ignore (exercise "alg2/k2" (Registry.alg2 ~k:2 ~crashes:0))

(* ---------------------------------------------------------------- *)
(* Paranoid: carried fingerprints are re-validated at every claimed
   node — clean on a correct patcher, loud on a corrupted one.       *)

let paranoid_clean () =
  (* The wait-freedom checker patches its own solo-step fingerprints, and
     under [~paranoid] re-folds every configuration its memo takes: a
     disagreement would fail the check with [Invalid_argument]. *)
  let { store; programs; _ } = Registry.alg5 ~k:3 in
  let v =
    Subc_check.Progress.check_wait_free
      ~options:Search.(default |> with_max_crashes 1 |> with_paranoid true)
      store ~programs
  in
  let metric name = List.assoc name (Verdict.stats v).Verdict.metrics in
  Alcotest.(check bool) "paranoid wait-free proved" true (Verdict.is_proved v);
  Alcotest.(check (float 0.0)) "paranoid solo bound" 5.0 (metric "solo_bound");
  Alcotest.(check (float 0.0)) "paranoid configs" 2242.0 (metric "configs")

(* A carried fingerprint that disagrees with its re-fold is counted by
   [cross_check] and fails the search when it ends. *)
let paranoid_catches_mutation () =
  let config = root (Registry.alg2 ~k:3 ~crashes:0) in
  let c = Explore.fresh_counters () in
  let good = Fingerprint.hom_of_config config in
  Explore.cross_check c ~paranoid:true Explore.no_reduction good (-1) config;
  Explore.check_fp_mismatches ~engine:"test" c;
  Explore.cross_check c ~paranoid:true Explore.no_reduction
    (Fingerprint.extend good 0xBAD)
    (-1) config;
  (match Explore.check_fp_mismatches ~engine:"test" c with
  | () -> Alcotest.fail "a corrupted fingerprint went unnoticed"
  | exception Invalid_argument msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      "mismatch is attributed to the incremental patcher" true
      (contains msg "incremental fingerprint"))

let suite =
  [
    ( "fp.incremental",
      [
        test "homomorphic group laws" hom_group_laws;
        test_slow "patch == refold over reachable states" patch_matrix;
        test "delta chains materialize exactly" delta_roundtrip;
        test_slow "paranoid cross-validation is clean" paranoid_clean;
        test "paranoid catches a seeded wrong patch" paranoid_catches_mutation;
      ] );
  ]
