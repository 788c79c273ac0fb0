(* Walk the Section 6 impossibility argument mechanically.

   Lemma 38's critical-state proof says: in any would-be 2-process
   consensus algorithm over registers and WRN_k (k ≥ 3), a critical
   configuration's two pending WRN steps either commute for a third-party
   reader (same index) or commute for a solo run (non-adjacent indices).
   This explorer shows both halves concretely:

   - on WRN₂ the mirror protocol works, and the checker exhibits its
     critical configuration — the two pending steps on the SAME object
     whose order decides the outcome;
   - on WRN₃ the same protocol is bivalent all the way to disagreement,
     and the checker prints the indistinguishable schedules.

   Run with: dune exec examples/impossibility_explorer.exe *)

open Subc_sim
module Attempts = Subc_classic.Wrn_attempts
module Valence = Subc_check.Valence
module Verdict = Subc_check.Verdict

let protocol ~k ~style =
  let store, t = Attempts.alloc Store.empty ~k ~style in
  let programs =
    [ Attempts.propose t ~me:0 (Value.Int 0); Attempts.propose t ~me:1 (Value.Int 1) ]
  in
  Config.make store programs

let () =
  Format.printf "== WRN₂ (a swap): the protocol solves consensus ==@.";
  let config2 = protocol ~k:2 ~style:Attempts.Mirror_alg2 in
  (match
     Valence.consensus_verdict config2 ~inputs:[ Value.Int 0; Value.Int 1 ]
   with
  | Verdict.Proved { explore = Some stats; _ } ->
    Format.printf "verdict: solves (%a)@." Explore.pp_stats stats
  | v -> Format.printf "verdict: %a@." Verdict.pp_summary v);
  (match Valence.find_critical config2 with
  | Some (Valence.Critical _ as crit) ->
    Format.printf
      "@.its critical configuration (the heart of consensus number 2):@.%a@."
      Valence.pp_descent crit
  | Some (Valence.Disagreement _) | None ->
    Format.printf "no critical configuration?!@.");

  Format.printf
    "@.== WRN₃: the same shape cannot decide — Lemma 38 in action ==@.";
  let config3 = protocol ~k:3 ~style:Attempts.Mirror_alg2 in
  (match
     Valence.consensus_verdict config3 ~inputs:[ Value.Int 0; Value.Int 1 ]
   with
  | Verdict.Refuted { reason; trace; _ } ->
    Format.printf "verdict: violation (%s)@.witness schedule:@.%a@." reason
      Trace.pp trace
  | v -> Format.printf "verdict: %a@." Verdict.pp_summary v);

  (* The indistinguishability core: P1's WRN(1,·) reads cell 2, which
     nobody writes; cells 0 and 1 are non-adjacent "enough" for k = 3 in
     this protocol, so P1 learns nothing about P0's step order. *)
  Format.printf
    "@.why: with k ≥ 3 the two pending steps use indices i and i+1, and@.";
  Format.printf
    "the reader of cell i+2 observes neither — the configurations Cs_Ps_Q@.";
  Format.printf "and Cs_Qs_P are indistinguishable to a solo run (case 2).@.";

  Format.printf "@.== the doomed announce+adjacent repair, k = 3 ==@.";
  let config3' = protocol ~k:3 ~style:Attempts.Adjacent_announce in
  (match
     Valence.consensus_verdict config3' ~inputs:[ Value.Int 0; Value.Int 1 ]
   with
  | Verdict.Refuted { reason; trace; _ } ->
    Format.printf "verdict: violation (%s)@.witness schedule: %a@." reason
      Value.pp
      (Value.of_int_list (Trace.schedule trace))
  | v -> Format.printf "verdict: %a@." Verdict.pp_summary v);

  Format.printf
    "@.== and the busy-wait repair is not wait-free: the adversary loops ==@.";
  let config3'' = protocol ~k:3 ~style:Attempts.Busy_wait in
  match
    Valence.consensus_verdict config3'' ~inputs:[ Value.Int 0; Value.Int 1 ]
  with
  | Verdict.Refuted { trace; _ } ->
    Format.printf "verdict: diverges; lasso schedule: %a@." Value.pp
      (Value.of_int_list (Trace.schedule trace))
  | v -> Format.printf "verdict: %a@." Verdict.pp_summary v
