(* Bechamel timing benches (B1–B7 of EXPERIMENTS.md): cost of the
   simulator, the substrates and the checkers.  They print only and gate
   nothing; the explorer's speed is measured end to end, with pinned
   answers and per-layer metrics, by benchmark/. *)

open Bechamel
open Toolkit
open Subc_sim

(* B1: simulator step rate — one full Algorithm 2 run (k = 6) per
   iteration under a seeded random adversary. *)
let b1_sim_run =
  let k = 6 in
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:false in
  let programs =
    List.init k (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b1: run alg2 k=6 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 42) config)))

(* B2: snapshot implementations — solo update+scan on the register-based
   AADGMS vs the primitive object, n = 8 components. *)
let snapshot_bench name snapshot =
  let store, api = snapshot Store.empty 8 in
  let program =
    let open Program.Syntax in
    let* () = api.Subc_rwmem.Snapshot_api.update ~me:3 (Value.Int 1) in
    api.Subc_rwmem.Snapshot_api.scan
  in
  let config = Config.make store [ program ] in
  Test.make ~name
    (Staged.stage (fun () -> ignore (Runner.run Runner.Round_robin config)))

let b2_snapshot_registers =
  snapshot_bench "b2: snapshot scan (AADGMS, n=8)"
    Subc_rwmem.Snapshot_api.register_based

let b2_snapshot_primitive =
  snapshot_bench "b2: snapshot scan (primitive, n=8)"
    Subc_rwmem.Snapshot_api.primitive

(* B3: model-checker throughput — exhaustive exploration of Algorithm 2,
   k = 4 (hundreds of canonical states). *)
let b3_explore =
  let k = 4 in
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  let programs =
    List.init k (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b3: explore alg2 k=4 (exhaustive)"
    (Staged.stage (fun () ->
         ignore (Search.iter_terminals config ~f:(fun _ _ -> ()))))

(* B4: linearizability checking — a 6-operation 1sWRN history. *)
let b4_linearizability =
  let spec = Subc_objects.One_shot_wrn.model ~k:6 in
  let wrn i v = Op.make "wrn" [ Value.Int i; Value.Int v ] in
  let record proc op result inv res =
    { Subc_check.Linearizability.proc; op; result = Some result; inv; res }
  in
  let history =
    [
      record 0 (wrn 0 100) (Value.Int 101) 0 10;
      record 1 (wrn 1 101) Value.Bot 1 11;
      record 2 (wrn 2 102) Value.Bot 2 12;
      record 3 (wrn 3 103) Value.Bot 3 13;
      record 4 (wrn 4 104) (Value.Int 105) 4 14;
      record 5 (wrn 5 105) Value.Bot 5 15;
    ]
  in
  Test.make ~name:"b4: linearizability check (6-op 1sWRN history)"
    (Staged.stage (fun () ->
         ignore (Subc_check.Linearizability.check ~spec history)))

(* B5: Algorithm 5 end-to-end — one full 3-party run of the implemented
   1sWRN on a random schedule. *)
let b5_alg5 =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b5: run alg5 k=3 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 7) config)))

(* B6: the BG simulation — a full 2-simulators/3-processes run. *)
let b6_bg =
  let codes =
    List.init 3 (fun p ->
        Subc_bgsim.Sim_code.write_then_snapshot (Value.Int (100 + p)) Fun.id)
  in
  let store, bg = Subc_bgsim.Bg.alloc Store.empty ~simulators:2 ~codes in
  let programs = List.init 2 (fun me -> Subc_bgsim.Bg.simulate bg ~me) in
  let config = Config.make store programs in
  Test.make ~name:"b6: run BG simulation 2x3 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 3) config)))

(* B7: protocol-space refutation throughput — one whole k=3, 1-op census
   (144 protocols, each model-checked). *)
let b7_census =
  Test.make ~name:"b7: protocol census k=3 ops=1 (144 protocols)"
    (Staged.stage (fun () ->
         ignore (Subc_classic.Protocol_search.census ~k:3 ~ops:1 ())))

let run_all () =
  Format.printf "@.=== Timing benches (bechamel) ===@.";
  let tests =
    [ b1_sim_run; b2_snapshot_registers; b2_snapshot_primitive; b3_explore;
      b4_linearizability; b5_alg5; b6_bg; b7_census ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"subconsensus" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let ns =
        match Analyze.OLS.estimates r with
        | Some (ns :: _) -> Printf.sprintf "%12.1f ns/run" ns
        | _ -> "estimate unavailable"
      in
      let r2 =
        match Analyze.OLS.r_square r with
        | Some r2 -> Printf.sprintf "r²=%.3f" r2
        | None -> ""
      in
      Format.printf "%-55s %s %s@." name ns r2)
    (List.sort compare rows)
