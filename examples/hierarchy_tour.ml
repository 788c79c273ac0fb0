(* A guided tour of the band between registers and 2-consensus, with the
   model checker's verdict at every level:

     registers  <  1sWRN_k / (k,k−1)-set consensus  <  swap (= WRN₂)  <  CAS

   Run with: dune exec examples/hierarchy_tour.exe *)

open Subc_sim
module Task = Subc_tasks.Task
module Valence = Subc_check.Valence
module Hierarchy = Subc_core.Hierarchy

let section fmt = Format.printf ("@.== " ^^ fmt ^^ " ==@.")

(* Level 0: registers alone reach k distinct decisions on some schedule. *)
let registers () =
  section "level 0: read/write registers";
  let k = 3 in
  let store, t = Subc_classic.Rw_baseline.alloc Store.empty ~k in
  let inputs = List.init k (fun i -> Value.Int (100 + i)) in
  let programs =
    List.mapi (fun i v -> Subc_classic.Rw_baseline.propose t ~i v) inputs
  in
  let config = Config.make store programs in
  let best = ref 0 in
  let _ =
    Search.iter_terminals config ~f:(fun final _ ->
        best := max !best (List.length (Task.distinct (Config.decisions final))))
  in
  Format.printf
    "best-effort register protocol, %d workers: up to %d distinct decisions@."
    k !best;
  Format.printf "(no register protocol can guarantee %d — BG/HS/SZ)@." (k - 1)

(* Level 1: one WRN₃ guarantees 2 distinct decisions for 3 processes. *)
let wrn_level () =
  section "level 1: WRN₃ (the paper's object)";
  let k = 3 in
  let store, alg = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  let inputs = List.init k (fun i -> Value.Int (100 + i)) in
  let programs = List.mapi (fun i v -> Subc_core.Alg2.propose alg ~i v) inputs in
  let task = Task.conj (Task.set_consensus (k - 1)) Task.all_decided in
  (match Subc_check.Task_check.check store ~programs ~inputs ~task with
  | Subc_check.Verdict.Proved { explore = Some stats; _ } ->
    Format.printf "1sWRN₃ solves (3,2)-set consensus on ALL schedules (%a)@."
      Explore.pp_stats stats
  | _ -> assert false);
  (* …but not 2-process consensus. *)
  let store, t =
    Subc_classic.Wrn_attempts.alloc Store.empty ~k
      ~style:Subc_classic.Wrn_attempts.Adjacent_announce
  in
  let programs =
    [
      Subc_classic.Wrn_attempts.propose t ~me:0 (Value.Int 0);
      Subc_classic.Wrn_attempts.propose t ~me:1 (Value.Int 1);
    ]
  in
  let config = Config.make store programs in
  (match
     Valence.consensus_verdict config ~inputs:[ Value.Int 0; Value.Int 1 ]
   with
  | Subc_check.Verdict.Refuted { reason; trace; _ } ->
    Format.printf
      "2-consensus attempt on WRN₃ fails (%s) — counterexample schedule: %a@."
      reason Value.pp
      (Value.of_int_list (Trace.schedule trace))
  | v -> Format.printf "unexpected: %a@." Subc_check.Verdict.pp_summary v)

(* Level 1½: the hierarchy inside the band (Corollary 42). *)
let inner_hierarchy () =
  section "level 1½: the infinite hierarchy inside the band";
  List.iter
    (fun (k, k') ->
      Format.printf
        "1sWRN_%d → 1sWRN_%d implementable: %b;  1sWRN_%d → 1sWRN_%d: %b@." k
        k'
        (Hierarchy.implementable ~n:k' ~k:(k' - 1) ~m:k ~j:(k - 1))
        k' k
        (not (Hierarchy.separates ~k ~k')))
    [ (3, 4); (3, 5); (4, 6) ]

(* Level 2: swap = WRN₂ solves 2-consensus. *)
let swap_level () =
  section "level 2: swap (= WRN₂)";
  let inputs = [ Value.Int 0; Value.Int 1 ] in
  let store, programs =
    Subc_classic.Consensus_number.(protocol Store.empty (Wrn 2) ~inputs)
  in
  let config = Config.make store programs in
  match Valence.consensus_verdict config ~inputs with
  | Subc_check.Verdict.Proved { explore = Some stats; _ } ->
    Format.printf "WRN₂ solves 2-consensus on all schedules (%a)@."
      Explore.pp_stats stats
  | v -> Format.printf "unexpected: %a@." Subc_check.Verdict.pp_summary v

(* Level ∞: compare-and-swap solves consensus for any n. *)
let cas_level () =
  section "level ∞: compare-and-swap";
  let n = 4 in
  let inputs = List.init n (fun i -> Value.Int (100 + i)) in
  let store, programs =
    Subc_classic.Consensus_number.(protocol Store.empty Cas ~inputs)
  in
  let task = Task.conj Task.consensus Task.all_decided in
  match Subc_check.Task_check.check store ~programs ~inputs ~task with
  | Subc_check.Verdict.Proved { explore = Some stats; _ } ->
    Format.printf "CAS solves %d-process consensus (%a)@." n Explore.pp_stats
      stats
  | _ -> assert false

let () =
  Format.printf "A tour of the consensus hierarchy around the paper's band@.";
  registers ();
  wrn_level ();
  inner_hierarchy ();
  swap_level ();
  cas_level ();
  Format.printf
    "@.conclusion: 1sWRN_k objects sit strictly between registers and@.";
  Format.printf
    "2-consensus, and form an infinite hierarchy among themselves.@."
