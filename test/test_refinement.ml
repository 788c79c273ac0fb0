(* The generic outcome-refinement checker, applied across the repository's
   implementation/specification pairs. *)
open Subc_sim
open Helpers
module R = Subc_check.Refinement

let check_refines ~impl ~spec () = expect_refines ~impl ~spec

let check_equivalent ~impl ~spec () =
  match R.check_equivalent () ~impl ~spec with
  | Verdict.Proved _ -> ()
  | v -> Alcotest.failf "outcome sets differ: %a" Verdict.pp v

(* Harness builders. *)

let snapshot_harness api_of =
  let store, (api : Subc_rwmem.Snapshot_api.t) = api_of Store.empty 2 in
  let program me v =
    let open Program.Syntax in
    let* () = api.Subc_rwmem.Snapshot_api.update ~me (Value.Int v) in
    api.Subc_rwmem.Snapshot_api.scan
  in
  { R.store; programs = [ program 0 10; program 1 11 ] }

let mwmr_impl_harness () =
  let store, r = Subc_rwmem.Mwmr_impl.alloc Store.empty ~writers:2 in
  let writer me v =
    let open Program.Syntax in
    let* () = Subc_rwmem.Mwmr_impl.write r ~me (Value.Int v) in
    Subc_rwmem.Mwmr_impl.read r
  in
  { R.store; programs = [ writer 0 1; writer 1 2; Subc_rwmem.Mwmr_impl.read r ] }

let mwmr_spec_harness () =
  let store, r = Store.alloc Store.empty Subc_objects.Register.model_bot in
  let writer v =
    let open Program.Syntax in
    let* () = Subc_objects.Register.write r (Value.Int v) in
    Subc_objects.Register.read r
  in
  { R.store; programs = [ writer 1; writer 2; Subc_objects.Register.read r ] }

let relaxed_wrn_harness ~k =
  let store, t = Subc_core.Alg4.alloc Store.empty ~k in
  {
    R.store;
    programs =
      List.init k (fun i -> Subc_core.Alg4.rlx_wrn t ~i (Value.Int (100 + i)));
  }

let plain_wrn_harness ~k =
  let store, w = Store.alloc Store.empty (Subc_objects.Wrn.model ~k) in
  {
    R.store;
    programs =
      List.init k (fun i -> Subc_objects.Wrn.wrn w i (Value.Int (100 + i)));
  }

(* A shared harness as a refinement subject. *)
let subject (h : Subc_check.Harness.t) = { R.store = h.store; programs = h.programs }

let universal_queue_harness () =
  let spec = Subc_objects.Queue_obj.model [ Value.Int 0 ] in
  let store, u = Subc_classic.Universal.alloc Store.empty ~n:2 ~spec in
  {
    R.store;
    programs =
      [
        Subc_classic.Universal.perform u ~me:0 (Op.make "deq" []);
        Subc_classic.Universal.perform u ~me:1 (Op.make "enq" [ Value.Int 7 ]);
      ];
  }

let primitive_queue_harness () =
  let store, q =
    Store.alloc Store.empty (Subc_objects.Queue_obj.model [ Value.Int 0 ])
  in
  {
    R.store;
    programs =
      [
        Program.invoke q (Op.make "deq" []);
        Program.invoke q (Op.make "enq" [ Value.Int 7 ]);
      ];
  }

let broken_collect_harness () =
  (* A "snapshot" that is a plain collect — must NOT refine the atomic
     object (with a double-writer to expose the torn read). *)
  let store, c = Subc_rwmem.Collect.alloc Store.empty 2 in
  let double_writer =
    let open Program.Syntax in
    let* () = Subc_rwmem.Collect.write c 0 (Value.Int 1) in
    let* () = Subc_rwmem.Collect.write c 1 (Value.Int 2) in
    Program.return Value.Unit
  in
  let collector =
    Program.map (fun vs -> Value.Vec vs) (Subc_rwmem.Collect.collect c)
  in
  { R.store; programs = [ double_writer; collector ] }

let atomic_double_write_harness () =
  let store, s = Store.alloc Store.empty (Subc_objects.Snapshot_obj.model ~n:2) in
  let double_writer =
    let open Program.Syntax in
    let* () = Subc_objects.Snapshot_obj.update s 0 (Value.Int 1) in
    let* () = Subc_objects.Snapshot_obj.update s 1 (Value.Int 2) in
    Program.return Value.Unit
  in
  { R.store; programs = [ double_writer; Subc_objects.Snapshot_obj.scan s ] }

let suite =
  [
    ( "refinement",
      [
        test_slow "AADGMS snapshot ≡ atomic snapshot"
          (check_equivalent
             ~impl:(snapshot_harness Subc_rwmem.Snapshot_api.register_based)
             ~spec:(snapshot_harness Subc_rwmem.Snapshot_api.primitive));
        test_slow "MWMR-from-SWMR refines the register"
          (check_refines ~impl:(mwmr_impl_harness ()) ~spec:(mwmr_spec_harness ()));
        test "relaxed WRN ≡ plain WRN on distinct indices (k=3)"
          (check_equivalent ~impl:(relaxed_wrn_harness ~k:3)
             ~spec:(plain_wrn_harness ~k:3));
        test "Algorithm 5 refines the 1sWRN object (k=3)"
          (check_refines
             ~impl:(subject (Registry.alg5 ~k:3))
             ~spec:(subject (Registry.one_shot_wrn_object ~k:3)));
        test "Algorithm 5 ≡ the 1sWRN object (k=3)"
          (check_equivalent
             ~impl:(subject (Registry.alg5 ~k:3))
             ~spec:(subject (Registry.one_shot_wrn_object ~k:3)));
        test "universal queue refines the primitive queue"
          (check_refines ~impl:(universal_queue_harness ())
             ~spec:(primitive_queue_harness ()));
        test "negative control: a bare collect does NOT refine the snapshot"
          (fun () ->
            let impl = broken_collect_harness () in
            let v =
              R.check_refines () ~impl ~spec:(atomic_double_write_harness ())
            in
            let final =
              refutation_end (Config.make impl.R.store impl.R.programs) v
            in
            Alcotest.(check bool) "the witness ends at a terminal" true
              (Config.is_terminal final);
            Alcotest.(check bool) "torn outcome reported" true
              (Config.decisions final <> []));
      ] );
  ]
