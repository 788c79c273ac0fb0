(* Safe agreement and the BG simulation. *)
open Subc_sim
open Helpers
module Sa = Subc_bgsim.Safe_agreement
module Bg = Subc_bgsim.Bg
module Sim_code = Subc_bgsim.Sim_code
module Task = Subc_tasks.Task

(* A participant that joins and then spins on resolve until a decision. *)
let join_and_resolve sa ~me v =
  let open Program.Syntax in
  let* () = Sa.join sa ~me v in
  let rec wait () =
    let* r = Sa.resolve sa in
    match r with
    | Some d -> Program.return d
    | None ->
      let* () = Program.checkpoint (Value.Sym "sa-wait") in
      wait ()
  in
  wait ()

let sa_agreement_validity ~slots () =
  let store, sa = Sa.alloc Store.empty ~slots in
  let inputs = inputs slots in
  let programs = List.mapi (fun me v -> join_and_resolve sa ~me v) inputs in
  let config = Config.make store programs in
  let result =
    Search.check_terminals config ~ok:(fun final ->
        let os = Task.outcomes ~inputs final in
        Result.is_ok (Task.consensus.Task.check os)
        && Result.is_ok (Task.all_decided.Task.check os))
  in
  match result with
  | Ok _ -> ()
  | Error (_, trace, _) ->
    Alcotest.failf "safe agreement violated:@.%a" Trace.pp trace

(* The unsafe window: if a joiner stalls mid-join, resolve can stay None
   forever — the model checker finds the blocking schedule as a cycle. *)
let sa_window_blocks () =
  let store, sa = Sa.alloc Store.empty ~slots:2 in
  let programs =
    [
      join_and_resolve sa ~me:0 (Value.Int 1);
      join_and_resolve sa ~me:1 (Value.Int 2);
    ]
  in
  let config = Config.make store programs in
  let cycle, _ = Search.find_cycle config in
  Alcotest.(check bool) "a blocking schedule exists" true (cycle <> None)

(* A solo joiner always resolves to its own value. *)
let sa_solo () =
  let store, sa = Sa.alloc Store.empty ~slots:3 in
  let config =
    Config.make store [ join_and_resolve sa ~me:1 (Value.Int 9) ]
  in
  let r = Runner.run Runner.Round_robin config in
  Alcotest.check value "own value" (Value.Int 9) (decision_exn r.Runner.final 0)

(* --- BG simulation -------------------------------------------------- *)

(* Simulated protocol: write own id, snapshot, output the set of ids seen
   (as the raw view vector).  Legality of the simulated execution implies
   self-inclusion and pairwise containment of the decided views. *)
let view_codes m =
  List.init m (fun p ->
      Sim_code.write_then_snapshot (Value.Int (100 + p)) (fun view -> view))

let in_view view p = not (Value.is_bot (Value.vec_get view p))

let subset m a b =
  List.for_all (fun p -> (not (in_view a p)) || in_view b p) (List.init m Fun.id)

(* Collect each simulated process's decided view from the simulators'
   outputs (all simulators that report p's view report the same one —
   checked). *)
let decided_views m final n_simulators =
  let outputs =
    List.filter_map (Config.decision final) (List.init n_simulators Fun.id)
  in
  List.filter_map
    (fun p ->
      let views =
        List.filter_map
          (fun o ->
            match Value.vec_get o p with Value.Bot -> None | v -> Some v)
          outputs
      in
      match views with
      | [] -> None
      | v :: rest ->
        if List.for_all (Value.equal v) rest then Some (p, v)
        else Alcotest.failf "simulators disagree on process %d's view" p)
    (List.init m Fun.id)

let views_legal m views =
  List.for_all (fun (p, v) -> in_view v p) views
  && List.for_all
       (fun (_, a) ->
         List.for_all (fun (_, b) -> subset m a b || subset m b a) views)
       views

let bg_exhaustive ~n ~m () =
  let store, bg = Bg.alloc Store.empty ~simulators:n ~codes:(view_codes m) in
  let programs = List.init n (fun me -> Bg.simulate bg ~me) in
  let config = Config.make store programs in
  let result =
    Search.check_terminals
      ~options:Search.(default |> with_max_states 3_000_000)
      config ~ok:(fun final ->
        views_legal m (decided_views m final n))
  in
  match result with
  | Ok stats ->
    Alcotest.(check bool) "exhaustive" false stats.Explore.limited
  | Error (_, trace, _) ->
    Alcotest.failf "illegal simulated execution:@.%a" Trace.pp trace

let bg_sampled ~n ~m () =
  let store, bg = Bg.alloc Store.empty ~simulators:n ~codes:(view_codes m) in
  let programs = List.init n (fun me -> Bg.simulate bg ~me) in
  let config = Config.make store programs in
  List.iter
    (fun seed ->
      let r = Runner.run (Runner.Random seed) config in
      Alcotest.(check bool) "completed" true r.Runner.completed;
      let views = decided_views m r.Runner.final n in
      Alcotest.(check bool) "legal views" true (views_legal m views);
      (* With every simulator running to completion, every simulated
         process decides. *)
      Alcotest.(check int) "all simulated processes decided" m
        (List.length views))
    (seeds 60)

(* All simulators running normally never diverge. *)
let bg_terminates ~n ~m () =
  let store, bg = Bg.alloc Store.empty ~simulators:n ~codes:(view_codes m) in
  let programs = List.init n (fun me -> Bg.simulate bg ~me) in
  let config = Config.make store programs in
  let cycle, _ = Search.find_cycle
    ~options:Search.(default |> with_max_states 3_000_000)
    config in
  Alcotest.(check bool) "no infinite schedule" true (cycle = None)

(* A lone simulator simulates everything by itself. *)
let bg_solo_simulator () =
  let m = 3 in
  let store, bg = Bg.alloc Store.empty ~simulators:2 ~codes:(view_codes m) in
  let config = Config.make store [ Bg.simulate bg ~me:0 ] in
  let r = Runner.run Runner.Round_robin config in
  let out = decision_exn r.Runner.final 0 in
  (* Alone, it runs the m simulated processes sequentially: each view is
     everything written so far. *)
  List.iteri
    (fun p view ->
      Alcotest.(check bool)
        (Printf.sprintf "process %d sees itself" p)
        true
        (in_view view p))
    (Value.to_vec out);
  Alcotest.(check int) "all decided" m
    (List.length
       (List.filter (fun v -> not (Value.is_bot v)) (Value.to_vec out)))

(* n−1 resilience: crash simulator 1 after every possible prefix length;
   simulator 0 must still finish and decide at least m−(n−1) simulated
   processes. *)
let bg_crash_tolerance () =
  let m = 3 in
  let store, bg = Bg.alloc Store.empty ~simulators:2 ~codes:(view_codes m) in
  let programs = [ Bg.simulate bg ~me:0; Bg.simulate bg ~me:1 ] in
  let config = Config.make store programs in
  List.iter
    (fun prefix ->
      let crashed = Runner.run ~max_steps:prefix (Runner.Only [ 1 ]) config in
      let r = Runner.run (Runner.Only [ 0 ]) crashed.Runner.final in
      match Config.decision r.Runner.final 0 with
      | None ->
        Alcotest.failf "simulator 0 did not finish (crash prefix %d)" prefix
      | Some out ->
        let decided =
          List.length
            (List.filter (fun v -> not (Value.is_bot v)) (Value.to_vec out))
        in
        if decided < m - 1 then
          Alcotest.failf "only %d/%d decided after crash prefix %d" decided m
            prefix)
    (List.init 40 Fun.id)

let suite =
  [
    ( "bgsim.safe-agreement",
      [
        test "agreement+validity (2 procs, exhaustive)"
          (sa_agreement_validity ~slots:2);
        test "agreement+validity (3 procs, exhaustive)"
          (sa_agreement_validity ~slots:3);
        test "the unsafe window can block" sa_window_blocks;
        test "solo joiner decides its own value" sa_solo;
      ] );
    ( "bgsim.simulation",
      [
        test_slow "legal simulated views (n=2, m=2, exhaustive)"
          (bg_exhaustive ~n:2 ~m:2);
        test "legal simulated views (n=2, m=3, sampled)" (bg_sampled ~n:2 ~m:3);
        test "legal simulated views (n=3, m=4, sampled)" (bg_sampled ~n:3 ~m:4);
        test_slow "no divergence (n=2, m=2)" (bg_terminates ~n:2 ~m:2);
        test "a lone simulator finishes every simulated process"
          bg_solo_simulator;
        test "crash tolerance: every crash point of simulator 1"
          bg_crash_tolerance;
      ] );
  ]
