(* Strong set election: the S2 object satisfies the task (E9's positive
   half); the naive/iterated constructions from set consensus fail in
   model-checkable ways — the known-answer table E11 pins both
   counterexamples (test_experiments); here, what each still satisfies. *)
open Subc_sim
open Helpers
module Sse_obj = Subc_objects.Sse_obj
module Cand = Subc_core.Sse_from_set_consensus
module Task = Subc_tasks.Task

let election_inputs ids = List.map (fun i -> Value.Int i) ids

(* The primitive object solves the strong set election task — exhaustively,
   over all object nondeterminism. *)
let object_solves_task ~k ~ids () =
  let store, h = Store.alloc Store.empty (Sse_obj.model ~k ~j:(k - 1)) in
  let programs =
    List.map
      (fun i -> Program.map (fun w -> Value.Int w) (Sse_obj.propose h i))
      ids
  in
  let inputs = election_inputs ids in
  let task = Task.conj (Task.strong_set_election (k - 1)) Task.all_decided in
  ignore (check_exhaustive store ~programs ~inputs ~task)

let candidate_programs t ids =
  List.map
    (fun i -> Program.map (fun w -> Value.Int w) (Cand.elect t ~i))
    ids

(* The naive construction does satisfy plain (k−1)-set election — the gap
   is exactly the self-election property. *)
let naive_satisfies_weak_election () =
  let k = 3 in
  let store, t = Cand.alloc_naive Store.empty ~k in
  let ids = [ 0; 1; 2 ] in
  let inputs = election_inputs ids in
  let task = Task.conj (Task.set_election (k - 1)) Task.all_decided in
  ignore
    (check_exhaustive store ~programs:(candidate_programs t ids) ~inputs ~task)

(* The iterated construction still satisfies self-election (losers only
   defer to committed winners) — its gap is the winner count. *)
let iterated_self_election_holds () =
  let k = 3 in
  let store, t = Cand.alloc_iterated Store.empty ~k in
  let ids = [ 0; 1; 2 ] in
  let inputs = election_inputs ids in
  let config = Config.make store (candidate_programs t ids) in
  let self_election_ok final =
    let os = Task.outcomes ~inputs final in
    (* Check only the self-election component. *)
    List.for_all
      (fun (o : Task.outcome) ->
        match o.Task.output with
        | Some out when not (Value.equal out o.Task.input) -> (
          match
            List.find_opt (fun o' -> Value.equal o'.Task.input out) os
          with
          | Some { Task.output = Some out'; _ } -> Value.equal out' out
          | _ -> true)
        | _ -> true)
      os
  in
  let result =
    Search.check_terminals
      ~options:Search.(default |> with_max_states 4_000_000)
      config ~ok:self_election_ok
  in
  match result with
  | Ok stats -> Alcotest.(check bool) "exhaustive" false stats.Explore.limited
  | Error (_, trace, _) ->
    Alcotest.failf "iterated construction broke self-election:@.%a" Trace.pp
      trace

(* Both candidates are at least wait-free and legal. *)
let candidates_wait_free () =
  let k = 3 in
  let ids = [ 0; 1; 2 ] in
  let store, t = Cand.alloc_naive Store.empty ~k in
  ignore (check_wait_free store ~programs:(candidate_programs t ids));
  let store, t = Cand.alloc_iterated Store.empty ~k in
  ignore
    (check_wait_free ~max_states:4_000_000 store
       ~programs:(candidate_programs t ids))

let suite =
  [
    ( "sse.object",
      [
        test "object solves the task (k=3, all ids)"
          (object_solves_task ~k:3 ~ids:[ 0; 1; 2 ]);
        test "object solves the task (k=3, partial participation)"
          (object_solves_task ~k:3 ~ids:[ 0; 2 ]);
        test "object solves the task (k=4, three ids)"
          (object_solves_task ~k:4 ~ids:[ 0; 1; 3 ]);
      ] );
    ( "sse.candidates",
      [
        test "naive: weak set election still holds" naive_satisfies_weak_election;
        test_slow "iterated: self-election holds" iterated_self_election_holds;
        test_slow "both candidates are wait-free" candidates_wait_free;
      ] );
  ]
