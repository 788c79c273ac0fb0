(* The experiment tables of EXPERIMENTS.md (the paper is a theory paper with
   no tables or figures; its theorems are the reproduction targets — one
   experiment per result, see DESIGN.md).

   Every table is data.  A row holds its name, how to compute its cells,
   and the cells it must print, as literals: statuses, state, terminal and
   transition counts, solver counts, ratios — every cell but the scaling
   table's time.  [dune runtest] checks each row as its own case
   (test/test_experiments.ml); bench/main.exe prints the tables from the
   same rows. *)

open Subc_sim
module Task = Subc_tasks.Task
module Harness = Subc_check.Harness
module Registry = Subc_analysis.Registry
module Alg3 = Subc_core.Alg3
module Hierarchy = Subc_core.Hierarchy
module Task_check = Subc_check.Task_check
module Progress = Subc_check.Progress
module Verdict = Subc_check.Verdict
module Lin = Subc_check.Linearizability
module Cn = Subc_classic.Consensus_number
module P = Subc_classic.Set_consensus_power
module A = Subc_classic.Wrn_attempts
module Sse = Subc_core.Sse_from_set_consensus

type row = {
  name : string;
  cells : unit -> string list;
  expect : string list;
  seconds : (unit -> float) option;
      (** the wall-clock seconds of the row's search, printed by
          bench/main.exe in a time column and not pinned *)
}

type table = {
  id : string;  (** [bench/main.exe <id>] prints the table alone *)
  title : string;
  header : string list;
  rows : row list;
}

(* Row [name]: its [label] cells (the name alone by default) say how it
   is built; [cells ()] computes the rest, which must equal [expect]. *)
let row ?label ?seconds name cells expect =
  let label = Option.value label ~default:[ name ] in
  { name; cells = (fun () -> label @ cells ()); expect = label @ expect; seconds }

let table id title header rows = { id; title; header; rows }

let int = string_of_int
let seeds n = List.init n (fun i -> (7919 * (i + 1)) + 13)
let mode = function None -> "exhaustive" | Some n -> Printf.sprintf "%d runs" n

(* The word for verdict [v] of a check on [config].  A refutation's
   witness is replayed: it reads [fails] only when it ends at a terminal
   (a safety violation), and "diverges" when a process still runs at its
   end (a lasso). *)
let verdict_name ?(solves = "solves") ?(fails = "violation") config = function
  | Verdict.Proved _ -> solves
  | Verdict.Refuted { trace; _ } -> (
    match Replay.final config trace with
    | Ok c when Config.is_terminal c -> fails
    | Ok _ -> "diverges"
    | Error _ -> "unreplayable")
  | Verdict.Limited _ -> "unknown"

let consensus_verdict_name config ~inputs =
  verdict_name config (Subc_check.Valence.consensus_verdict config ~inputs)

(* One exhaustive search of [store, programs]: its stats, the most
   distinct decisions on any terminal, how many terminals [bad] flags, and
   its wall-clock seconds. *)
type space = { stats : Explore.stats; distinct : int; bad : int; seconds : float }

let search ?(options = Search.default) ?(bad = fun _ _ -> false) (store, programs) =
  let t0 = Unix.gettimeofday () in
  let distinct = ref 0 and bads = ref 0 in
  let stats =
    Search.iter_terminals ~options (Config.make store programs) ~f:(fun final trace ->
        distinct := max !distinct (List.length (Task.distinct (Config.decisions final)));
        if bad final trace then incr bads)
  in
  { stats; distinct = !distinct; bad = !bads; seconds = Unix.gettimeofday () -. t0 }

(* [f key ()] the first time [key] is asked, the same value after: rows
   that read one space share its search. *)
let memo () =
  let table = Hashtbl.create 8 in
  fun key f ->
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.add table key v;
      v

(* Algorithm 2 (one-shot, k processes); [bad] is a terminal that violates
   (k, k−1)-set consensus. *)
let alg2_space =
  let once = memo () in
  fun k ->
    once k (fun () ->
        let h = Registry.alg2 ~k ~crashes:0 in
        search (h.store, h.programs) ~bad:(fun final _ -> h.explain final <> None))

(* Algorithm 5 (1sWRN_k from strong set election) with [participants];
   [bad] is a terminal whose history does not linearize against the 1sWRN_k
   spec (a crashed participant's operation is incomplete). *)
let alg5_space =
  let once = memo () in
  fun ?(max_crashes = 0) k participants ->
    once (k, participants, max_crashes) (fun () ->
        let ops i =
          let idx = List.nth participants i in
          Op.make "wrn" [ Value.Int idx; Harness.tok idx ]
        in
        let spec = Subc_objects.One_shot_wrn.model ~k in
        let h = Registry.alg5 ~k in
        search (h.store, List.map (List.nth h.programs) participants)
          ~options:Search.(with_max_crashes max_crashes default)
          ~bad:(fun final trace -> Lin.check ~spec (Lin.history ~ops final trace) = None))

(* [h]'s task: without [runs] the exhaustive verdict; with [runs] the
   violation count over that many seeded random runs, and the most
   distinct decisions any of them reached. *)
let check_or_sample ?runs (h : Harness.t) =
  match (runs, h.property) with
  | None, _ -> (Verdict.status_string (h.checker Search.default), 0)
  | Some _, Harness.Other p -> invalid_arg ("no task to sample: " ^ p)
  | Some n, Harness.Task { inputs; task } ->
    let s =
      Task_check.sample h.store ~programs:h.programs ~inputs ~task ~seeds:(seeds n)
    in
    let best = ref 0 in
    Array.iteri (fun i c -> if c > 0 then best := i + 1) s.Task_check.distinct_counts;
    (Printf.sprintf "%d violations" s.Task_check.violations, !best)

(* ------------------------------------------------------------ E1–E5 *)

(* Exhaustive: the violating terminals; sampled: the violating runs. *)
let e1 ?runs k expect =
  row (Printf.sprintf "k=%d %s" k (mode runs)) ~label:[ int k; mode runs ]
    (fun () ->
      let states, best, verdict =
        match runs with
        | None ->
          let s = alg2_space k in
          (int s.stats.Explore.states, s.distinct, Printf.sprintf "%d violations" s.bad)
        | Some _ ->
          let verdict, best = check_or_sample ?runs (Registry.alg2 ~k ~crashes:0) in
          ("-", best, verdict)
      in
      [ states; int best; int (k - 1); verdict ])
    expect

(* WRN: the bound k−1 holds on every schedule; registers: some schedule
   reaches k. *)
let e2 k expect =
  row (Printf.sprintf "k=%d" k) ~label:[ int k ]
    (fun () ->
      let module Rw = Subc_classic.Rw_baseline in
      let store, r = Rw.alloc Store.empty ~k in
      let registers = List.mapi (fun i v -> Rw.propose r ~i v) (Harness.inputs k) in
      [ int (alg2_space k).distinct; int (search (store, registers)).distinct ])
    expect

(* The instances are the WRN objects the sweep allocates. *)
let e3 name flavor renamer ids ?runs expect =
  let k = List.length ids in
  row name ~label:[ int k; name ]
    (fun () ->
      let h = Registry.alg3 ~flavor ~renamer ~ids ~crashes:0 in
      let wrn kind =
        List.mem kind [ Printf.sprintf "wrn(%d)" k; Printf.sprintf "one_shot_wrn(%d)" k ]
      in
      let verdict, _ = check_or_sample ?runs h in
      [ int (List.length (List.filter wrn (Store.kinds h.store))); mode runs;
        int (k - 1); verdict ])
    expect

let e4 name indices expect =
  row name
    (fun () ->
      let module Alg4 = Subc_core.Alg4 in
      let store, t = Alg4.alloc Store.empty ~k:3 in
      let programs =
        List.mapi (fun p i -> Alg4.rlx_wrn t ~i (Harness.tok p)) indices
      in
      let legal =
        Verdict.is_proved (Progress.check_t_resilient ~t:0 store ~programs)
      in
      let all_bot =
        Search.check_terminals (Config.make store programs) ~ok:(fun final ->
            not (List.for_all Value.is_bot (Config.decisions final)))
      in
      [ (if legal then "never" else "REACHED");
        (if Result.is_error all_bot then "yes" else "no") ])
    expect

let e5 ~k participants expect =
  row
    (Printf.sprintf "k=%d parts={%s}" k
       (String.concat "," (List.map int participants)))
    (fun () ->
      let s = alg5_space k participants in
      [ int s.stats.Explore.states; int s.stats.Explore.terminals; int s.bad ])
    expect

(* ------------------------------------------------------------ E6–E11 *)

let e6 name style expect =
  row name
    (fun () ->
      List.map
        (fun k ->
          let store, t = A.alloc Store.empty ~k ~style in
          let config =
            Config.make store
              [ A.propose t ~me:0 (Value.Int 0); A.propose t ~me:1 (Value.Int 1) ]
          in
          consensus_verdict_name config ~inputs:[ Value.Int 0; Value.Int 1 ])
        [ 2; 3; 4 ])
    expect

let e7 ~n ~k expect =
  let module Alg6 = Subc_core.Alg6 in
  row (Printf.sprintf "n=%d k=%d" n k) ~label:[ int n; int k ]
    (fun () ->
      let m = Alg6.agreement_bound ~n ~k in
      let violations, best = check_or_sample ~runs:200 (Registry.alg6 ~n ~k ~crashes:0) in
      let ratio a b = Printf.sprintf "%.2f" (float_of_int a /. float_of_int b) in
      [ int m; ratio m n; ratio (k - 1) k; int best; violations ])
    expect

let e8 k k' expect =
  row (Printf.sprintf "%d -> %d" k k')
    (fun () ->
      [ (if Hierarchy.implementable ~n:k' ~k:(k' - 1) ~m:k ~j:(k - 1) then "yes"
         else "no");
        (if Hierarchy.separates ~k ~k' then "no (Thm 41)" else "yes") ])
    expect

let e8_partition ~n ~m ~j expect =
  row (Printf.sprintf "%d procs from (%d,%d)-objects" n m j)
    (fun () ->
      let store, t = Hierarchy.alloc_set_consensus Store.empty ~n ~m ~j in
      let programs = List.mapi (fun i v -> Hierarchy.propose t ~i v) (Harness.inputs n) in
      let s = search (store, programs) in
      [ int s.distinct; int (Hierarchy.partition_bound ~n ~m ~j);
        int s.stats.Explore.states ])
    expect

let e9 expect =
  row "win/lose"
    (fun () ->
      let module R = Subc_objects.Register in
      let store, h = Store.alloc Store.empty (Subc_objects.Sse_obj.model ~k:3 ~j:2) in
      let store, regs = Store.alloc_many store 2 R.model_bot in
      let program me v =
        let open Program.Syntax in
        let* () = R.write (List.nth regs me) v in
        let* w = Subc_objects.Sse_obj.propose h me in
        if w = me then Program.return v else R.read (List.nth regs (1 - me))
      in
      let config =
        Config.make store [ program 0 (Value.Int 0); program 1 (Value.Int 1) ]
      in
      [ consensus_verdict_name config ~inputs:[ Value.Int 0; Value.Int 1 ] ])
    expect

let e10_snapshot expect =
  let module S = Subc_rwmem.Snapshot_api in
  row "AADGMS snapshot (n=2)"
    (fun () ->
      let harness api_of =
        let store, (api : S.t) = api_of Store.empty 2 in
        let program me v =
          Program.bind (api.S.update ~me (Value.Int v)) (fun () -> api.S.scan)
        in
        { Subc_check.Refinement.store; programs = [ program 0 10; program 1 11 ] }
      in
      let v =
        Subc_check.Refinement.check_refines () ~impl:(harness S.register_based)
          ~spec:(harness S.primitive)
      in
      let outcomes side =
        match List.assoc_opt side (Verdict.stats v).Verdict.metrics with
        | Some n -> int (int_of_float n)
        | None -> "?"
      in
      [ "refines atomic snapshot";
        Printf.sprintf "%s impl / %s spec outcomes" (outcomes "impl_outcomes")
          (outcomes "spec_outcomes");
        Verdict.status_string v ])
    expect

(* The counter's flag principle: at most one reader sees 1. *)
let e10_counter expect =
  let module C = Subc_rwmem.Counter_impl in
  row "counter from snapshot"
    (fun () ->
      let store, counter =
        C.alloc Store.empty ~contributors:2
          ~snapshot:Subc_rwmem.Snapshot_api.register_based
      in
      let program me =
        let open Program.Syntax in
        let* () = C.inc counter ~me in
        Program.map (fun c -> Value.Int c) (C.read counter)
      in
      let ones final =
        List.length (List.filter (Value.equal (Value.Int 1)) (Config.decisions final))
      in
      "flag principle (<=1 reads 1)"
      ::
      (match
         Search.check_terminals (Config.make store [ program 0; program 1 ])
           ~ok:(fun final -> ones final <= 1)
       with
      | Ok _ -> [ "holds"; "proved" ]
      | Error _ -> [ "broken"; "refuted" ]))
    expect

(* The candidate's refutation: its reason, the length of its witness, and
   the verdict its witness replays to. *)
let e11 name alloc expect =
  row name
    (fun () ->
      let store, t = alloc Store.empty ~k:3 in
      let programs =
        List.map
          (fun i -> Program.map (fun w -> Value.Int w) (Sse.elect t ~i))
          [ 0; 1; 2 ]
      in
      let v =
        Task_check.check
          ~options:Search.(with_max_states 4_000_000 default)
          store ~programs ~inputs:[ Value.Int 0; Value.Int 1; Value.Int 2 ]
          ~task:(Task.strong_set_election 2)
      in
      let replayed = verdict_name (Config.make store programs) v in
      match v with
      | Verdict.Refuted { reason; trace; _ } ->
        [ Printf.sprintf "%s (schedule length %d)" reason (Trace.length trace);
          replayed ]
      | v -> [ Verdict.status_string v; replayed ])
    expect

(* ----------------------------------------------------------- E12–E14 *)

let e12 name family expect =
  row name
    (fun () ->
      let cell n =
        let inputs = List.init n (fun i -> Value.Int i) in
        let store, programs = Cn.protocol Store.empty family ~inputs in
        verdict_name ~fails:"fails" (Config.make store programs)
          (Cn.verdict family ~n)
      in
      let known = Cn.known_consensus_number family in
      [ cell 2; cell 3; Option.fold ~none:"∞" ~some:int known ])
    expect

let e13_grid = [ (2, 1); (2, 2); (3, 1); (3, 2); (4, 2); (4, 3) ]

(* A cell is the model checker's answer, marked "!" where it disagrees
   with [P.predicted], so a pinned cell pins the prediction too. *)
let e13 name family expect =
  row name
    (fun () ->
      List.map
        (fun (n, k) ->
          if not (P.applicable family ~n) then "-"
          else
            let store, programs = P.protocol Store.empty family ~n in
            let v = P.verdict family ~n ~k in
            verdict_name ~solves:"yes" ~fails:"no" (Config.make store programs) v
            ^ if Verdict.is_proved v = P.predicted family ~n ~k then "" else "!")
        e13_grid)
    expect

let e14 ~k ~ops expect =
  let module Ps = Subc_classic.Protocol_search in
  row (Printf.sprintf "k=%d ops=%d" k ops) ~label:[ int k; int ops ]
    (fun () ->
      let c = Ps.census ~k ~ops () in
      [ int c.Ps.total; int c.Ps.solving;
        Option.fold ~none:"-" ~some:Ps.describe c.Ps.example_solver ])
    expect

(* ----------------------------------------------------------------- E15 *)

(* Algorithm 2, k=3: safety under every schedule and every crash pattern
   with <= f crashes. *)
let e15_alg2 f expect =
  row (Printf.sprintf "alg2 safety f=%d" f)
    ~label:[ "Alg 2 (k=3) safety"; Printf.sprintf "exhaustive, f=%d" f ]
    (fun () ->
      let h = Registry.alg2 ~k:3 ~crashes:f in
      match
        Search.check_terminals
          ~options:Search.(default |> with_max_crashes f)
          (Harness.root h)
          ~ok:(fun final -> h.explain final = None)
      with
      | Ok stats -> [ int stats.Explore.states; "safe" ]
      | Error (_, _, stats) -> [ int stats.Explore.states; "VIOLATION" ])
    expect

(* Algorithm 5, k=3: every terminal under a one-crash budget linearizes
   against the 1sWRN spec (crashed participants = incomplete operations). *)
let e15_alg5 expect =
  let name = "Alg 5 (k=3) linearizability" in
  row name ~label:[ name; "exhaustive, f=1" ]
    (fun () ->
      let s = alg5_space ~max_crashes:1 3 [ 0; 1; 2 ] in
      [ int s.stats.Explore.states;
        Printf.sprintf "%d bad / %d terminals (%d crashed)" s.bad
          s.stats.Explore.terminals s.stats.Explore.crashed_terminals ])
    expect

(* A wait-freedom certificate (solo-step bound), crash budget included. *)
let e15_wait_free name (h : Harness.t) ~f expect =
  row name ~label:[ name; Printf.sprintf "progress, f=%d" f ]
    (fun () ->
      let v =
        Progress.check_wait_free ~options:Search.(with_max_crashes f default) h.store
          ~programs:h.programs
      in
      let metric key =
        int (int_of_float (List.assoc key (Verdict.stats v).Verdict.metrics))
      in
      match v with
      | Verdict.Proved _ ->
        [ metric "configs"; "wait-free, solo bound " ^ metric "solo_bound" ]
      | Verdict.Refuted { reason; _ } -> [ "-"; reason ]
      | Verdict.Limited _ -> [ "-"; "exploration truncated" ])
    expect

(* A deliberately lock-free-only construction must produce a
   counterexample schedule: its witness ends in the spinner's solo loop. *)
let e15_spinner expect =
  row "lock-free spinner" ~label:[ "lock-free spinner"; "progress, f=0"; "-" ]
    (fun () ->
      let module R = Subc_objects.Register in
      let store, reg = Store.alloc Store.empty R.model_bot in
      let rec spin () =
        let open Program.Syntax in
        let* () = Program.checkpoint (Value.Sym "spin") in
        let* v = R.read reg in
        if Value.is_bot v then spin () else Program.return v
      in
      let writer =
        Program.map (fun () -> Value.Int 1) (R.write reg (Value.Int 1))
      in
      match Progress.check_wait_free store ~programs:[ spin (); writer ] with
      | Verdict.Refuted { trace; _ } when Trace.schedule trace <> [] ->
        let p = List.hd (List.rev (Trace.schedule trace)) in
        [ Printf.sprintf "NOT wait-free (P%d solo-spins)" p ]
      | v -> [ Verdict.status_string v ])
    expect

(* BG simulation: a crashed simulator blocks at most one simulated
   process — the surviving simulator still decides >= m-1 of them. *)
let e15_bg expect =
  let name = "BG (2 sims, m=3), sim 1 dies" in
  row name ~label:[ name; "crash-at-step sweep" ]
    (fun () ->
      let module Bg = Subc_bgsim.Bg in
      let run seed s =
        let codes =
          List.init 3 (fun p ->
              Subc_bgsim.Sim_code.write_then_snapshot (Harness.tok p) Fun.id)
        in
        let store, bg = Bg.alloc Store.empty ~simulators:2 ~codes in
        let adversary =
          Runner.Recover_after
            { crashes = [ (s, 1) ]; recoveries = []; seed = Some seed }
        in
        let r =
          Runner.run adversary
            (Config.make store (List.init 2 (fun me -> Bg.simulate bg ~me)))
        in
        match Config.decision r.Runner.final 0 with
        | Some (Value.Vec views) ->
          let undecided = List.length (List.filter Value.is_bot views) in
          (r.Runner.completed && undecided <= 1, undecided > 0)
        | _ -> (false, false)
      in
      let results =
        List.concat_map (fun seed -> List.init 12 (run seed)) (seeds 25)
      in
      let count p = List.length (List.filter p results) in
      let runs = List.length results in
      [ int runs;
        Printf.sprintf "%d/%d runs block <= 1 simulated (%d blocked some)"
          (count fst) runs (count snd) ])
    expect

(* ----------------------------------------------------------------- E16 *)

(* Reduction-ratio table: the same instances explored with and without
   symmetry quotienting + source sets.  Two ratios are reported because
   they bound different resources: visited {e states} (capped by the group
   order — rotations give at most 3x at k=3) and {e transitions} (state
   expansions, where source sets add their savings on top).  All counts are
   deterministic, so the ratios are exact reproduction targets, not
   timings. *)

(* The instances: a name, a store with its programs, and the group the
   reduced search quotients by. *)
let of_harness name (h : Harness.t) =
  (name, (h.store, h.programs), Option.get h.symmetry)

let e16_alg2 = of_harness "Alg 2 (k=3)" (Registry.alg2 ~k:3 ~crashes:0)
let e16_alg5 = of_harness "Alg 5 (k=3)" (Registry.alg5 ~k:3)

let e16_sc =
  of_harness "set-consensus (3,2)"
    (Registry.set_consensus_object ~n:3 ~k:2 ~crashes:0)

(* Two (3,2)-set-consensus objects in sequence: each process proposes its
   value to the first and the first's answer to the second. *)
let e16_chained =
  let module Sc = Subc_objects.Set_consensus_obj in
  let store, ha = Store.alloc Store.empty (Sc.model ~n:3 ~k:2) in
  let store, hb = Store.alloc store (Sc.model ~n:3 ~k:2) in
  ( "chained set-consensus",
    (store, List.init 3 (fun i -> Program.bind (Sc.propose ha (Harness.tok i)) (Sc.propose hb))),
    Symmetry.standard ~n:3 ~input_base:100 `Full )

let e16_wrn = of_harness "1sWRN (k=3)" (Registry.one_shot_wrn_object ~k:3)

(* (base states, base transitions, reduced states, reduced transitions),
   searched once per instance and budget: the aggregate row reuses them. *)
let e16_counts =
  let once = memo () in
  fun (name, space, sym) f ->
    once (name, f) (fun () ->
        let options = Search.(with_max_crashes f default) in
        let base = (search ~options space).stats in
        let full =
          (search space
             ~options:(Search.with_reduction (Explore.full_reduction sym) options))
            .stats
        in
        Explore.(base.states, base.transitions, full.states, full.transitions))

let e16_cells (bs, bt, fs, ft) =
  let ratio a b = Printf.sprintf "%.2fx" (float_of_int a /. float_of_int (max 1 b)) in
  [ Printf.sprintf "%d / %d" bs fs; Printf.sprintf "%d / %d" bt ft; ratio bs fs;
    ratio bt ft ]

let e16 ((name, _, sym) as instance) f expect =
  let order = List.length (Symmetry.perms sym) in
  row (Printf.sprintf "%s f=%d" name f)
    ~label:[ name; Printf.sprintf "f=%d, |G|=%d" f order ]
    (fun () -> e16_cells (e16_counts instance f))
    expect

(* Every instance at every crash budget of the table's rows, summed. *)
let e16_aggregate expect =
  row "aggregate" ~label:[ "aggregate"; "-" ]
    (fun () ->
      let add (a, b, c, d) (a', b', c', d') = (a + a', b + b', c + c', d + d') in
      let counts (instance, budgets) = List.map (e16_counts instance) budgets in
      List.concat_map counts
        [ (e16_alg2, [ 0; 1; 2 ]); (e16_alg5, [ 0; 1 ]); (e16_sc, [ 0; 1 ]);
          (e16_chained, [ 0; 1 ]); (e16_wrn, [ 0 ]) ]
      |> List.fold_left add (0, 0, 0, 0)
      |> e16_cells)
    expect

(* ------------------------------------------------------- E18, scaling *)

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
   budgets (n = 2, crash budget max(n−1, r)). *)
let e18 name family expect =
  let module R = Subc_classic.Recoverable in
  row name
    (fun () ->
      List.map
        (fun r ->
          let store, programs =
            R.protocol Store.empty family ~n:2 ~max_recoveries:r
          in
          verdict_name ~fails:"fails" (Config.make store programs)
            (R.verdict family ~n:2 ~max_recoveries:r))
        [ 0; 1; 2 ])
    expect

(* A space E1 or E5 searched too: the same search, its terminals and
   depth, and its time (the linearizability or task check of every
   terminal included). *)
let scaling name space expect =
  row name ~seconds:(fun () -> (space ()).seconds)
    (fun () ->
      let s = (space ()).stats in
      [ int s.Explore.states; int s.Explore.terminals; int s.Explore.max_depth ])
    expect

(* ------------------------------------------------------------- tables *)

let tables =
  [
    table "e1" "E1. Algorithm 2: (k,k-1)-set consensus from one WRN_k"
      [ "k"; "mode"; "states"; "max-distinct"; "bound k-1"; "verdict" ]
      [
        e1 3 [ "16"; "2"; "2"; "0 violations" ];
        e1 4 [ "45"; "3"; "3"; "0 violations" ];
        e1 5 [ "121"; "4"; "4"; "0 violations" ];
        e1 6 [ "320"; "5"; "5"; "0 violations" ];
        e1 7 ~runs:400 [ "-"; "6"; "6"; "0 violations" ];
        e1 8 ~runs:400 [ "-"; "7"; "7"; "0 violations" ];
        e1 10 ~runs:400 [ "-"; "9"; "9"; "0 violations" ];
      ];
    table "e2"
      "E2. The register gap (Cor 10): worst-case distinct decisions, all \
       schedules"
      [ "k"; "WRN_k"; "registers" ]
      [ e2 3 [ "2"; "3" ]; e2 4 [ "3"; "4" ] ];
    table "e3" "E3. Algorithm 3: k participants out of many (renaming + sweep)"
      [ "k"; "configuration"; "instances"; "mode"; "bound"; "verdict" ]
      [
        e3 "plain+grid" Alg3.Plain_wrn Alg3.Rename_grid [ 13; 7 ]
          [ "3"; "exhaustive"; "1"; "proved" ];
        e3 "plain+snapshot-renaming" Alg3.Plain_wrn Alg3.Rename_snapshot
          [ 13; 7 ] [ "3"; "exhaustive"; "1"; "proved" ];
        e3 "plain+identity(5 names)" Alg3.Plain_wrn (Alg3.Rename_identity 5)
          [ 0; 2; 4 ] ~runs:300 [ "10"; "300 runs"; "2"; "0 violations" ];
        e3 "relaxed+grid" Alg3.Relaxed_wrn Alg3.Rename_grid [ 19; 3; 11 ]
          ~runs:300 [ "20"; "300 runs"; "2"; "0 violations" ];
        e3 "relaxed+snapshot-renaming" Alg3.Relaxed_wrn Alg3.Rename_snapshot
          [ 104; 2; 77 ] ~runs:300 [ "10"; "300 runs"; "2"; "0 violations" ];
      ];
    table "e4"
      "E4. Algorithm 4 (relaxed WRN over 1sWRN_3): legality under collisions"
      [ "index pattern"; "illegal use"; "all-bot reachable" ]
      [
        e4 "0,1,2 (distinct)" [ 0; 1; 2 ] [ "never"; "no" ];
        e4 "0,0,1 (partial collision)" [ 0; 0; 1 ] [ "never"; "yes" ];
        e4 "0,0,0 (full collision)" [ 0; 0; 0 ] [ "never"; "yes" ];
      ];
    table "e5"
      "E5. Algorithm 5: linearizability of 1sWRN_k from strong set election"
      [ "instance"; "states"; "terminals"; "non-linearizable" ]
      [
        e5 ~k:3 [ 0; 1 ] [ "50"; "6"; "0" ];
        e5 ~k:3 [ 0; 2 ] [ "50"; "6"; "0" ];
        e5 ~k:3 [ 0; 1; 2 ] [ "1126"; "90"; "0" ];
        e5 ~k:4 [ 0; 1; 2; 3 ] [ "60948"; "5348"; "0" ];
      ];
    (* On WRN_2 the mirror and announce protocols are real 2-consensus; the
       same-index protocol still fails; busy-wait fails by disagreement (its
       spin cell 0 is written by P0, so it terminates — into a violation). *)
    table "e6"
      "E6. Lemma 38: 2-process consensus attempts — WRN_2 vs WRN_k (k>=3)"
      [ "protocol"; "WRN_2"; "WRN_3"; "WRN_4" ]
      [
        e6 "mirror-alg2" A.Mirror_alg2 [ "solves"; "violation"; "violation" ];
        e6 "same-index" A.Same_index [ "violation"; "violation"; "violation" ];
        e6 "announce+adjacent" A.Adjacent_announce
          [ "solves"; "violation"; "violation" ];
        e6 "busy-wait" A.Busy_wait [ "violation"; "diverges"; "diverges" ];
      ];
    table "e7"
      "E7. Algorithm 6: m-set consensus for n processes (ratio (k-1)/k <= m/n)"
      [ "n"; "k"; "m"; "m/n"; "(k-1)/k"; "max-distinct(200)"; "verdict" ]
      [
        e7 ~n:3 ~k:3 [ "2"; "0.67"; "0.67"; "2"; "0 violations" ];
        e7 ~n:4 ~k:3 [ "3"; "0.75"; "0.67"; "3"; "0 violations" ];
        e7 ~n:6 ~k:3 [ "4"; "0.67"; "0.67"; "4"; "0 violations" ];
        e7 ~n:8 ~k:3 [ "6"; "0.75"; "0.67"; "6"; "0 violations" ];
        e7 ~n:12 ~k:3 [ "8"; "0.67"; "0.67"; "8"; "0 violations" ];
        e7 ~n:4 ~k:4 [ "3"; "0.75"; "0.75"; "3"; "0 violations" ];
        e7 ~n:6 ~k:4 [ "5"; "0.83"; "0.75"; "5"; "0 violations" ];
        e7 ~n:8 ~k:4 [ "6"; "0.75"; "0.75"; "6"; "0 violations" ];
        e7 ~n:12 ~k:4 [ "9"; "0.75"; "0.75"; "9"; "0 violations" ];
        e7 ~n:6 ~k:5 [ "5"; "0.83"; "0.80"; "5"; "0 violations" ];
        e7 ~n:8 ~k:5 [ "7"; "0.88"; "0.80"; "7"; "0 violations" ];
        e7 ~n:12 ~k:5 [ "10"; "0.83"; "0.80"; "10"; "0 violations" ];
      ];
    table "e8"
      "E8. Corollary 42: the hierarchy — 1sWRN_k implements 1sWRN_k' iff k <= k'"
      [ "k -> k'"; "upward"; "downward" ]
      [
        e8 3 4 [ "yes"; "no (Thm 41)" ];
        e8 3 5 [ "yes"; "no (Thm 41)" ];
        e8 4 5 [ "yes"; "no (Thm 41)" ];
        e8 4 6 [ "yes"; "no (Thm 41)" ];
        e8 5 9 [ "yes"; "no (Thm 41)" ];
      ];
    table "e8-partition"
      "E8. Partition construction: n processes from (m,j)-set-consensus objects"
      [ "construction"; "max distinct"; "bound"; "states" ]
      [ e8_partition ~n:4 ~m:3 ~j:2 [ "3"; "3"; "98" ] ];
    table "e9"
      "E9. The S2 strong-set-election object cannot solve 2-consensus"
      [ "protocol"; "2-consensus" ]
      [ e9 [ "violation" ] ];
    table "e10" "E10. Substrate validity (register-only constructions)"
      [ "construction"; "property"; "result"; "verdict" ]
      [
        e10_snapshot
          [ "refines atomic snapshot"; "3 impl / 3 spec outcomes"; "proved" ];
        e10_counter [ "flag principle (<=1 reads 1)"; "holds"; "proved" ];
      ];
    table "e11"
      "E11. Why [9] is nontrivial: candidate SSE constructions fail \
       (model-checked counterexamples)"
      [ "candidate"; "counterexample"; "verdict" ]
      [
        e11 "naive (1 round)" Sse.alloc_naive
          [ "self-election: P2 decided 1 but that process decided otherwise \
             (schedule length 9)"; "violation" ];
        e11 "iterated (k rounds + commit board)" Sse.alloc_iterated
          [ "2-agreement: 3 distinct outputs: [0; 1; 2] (schedule length 19)";
            "violation" ];
      ];
    table "e12"
      "E12. The consensus hierarchy around the paper's band (canonical \
       protocols, model-checked)"
      [ "object"; "n=2"; "n=3"; "known cons. no." ]
      [
        e12 "register" Cn.Register [ "fails"; "fails"; "1" ];
        e12 "WRN_3" (Cn.Wrn 3) [ "fails"; "fails"; "1" ];
        e12 "strong-set-election(3,2)" (Cn.Strong_set_election 3)
          [ "fails"; "fails"; "1" ];
        e12 "swap" Cn.Swap [ "solves"; "fails"; "2" ];
        e12 "WRN_2" (Cn.Wrn 2) [ "solves"; "fails"; "2" ];
        e12 "test-and-set" Cn.Test_and_set [ "solves"; "fails"; "2" ];
        e12 "fetch-and-add" Cn.Fetch_and_add [ "solves"; "fails"; "2" ];
        e12 "queue" Cn.Queue [ "solves"; "fails"; "2" ];
        e12 "compare-and-swap" Cn.Cas [ "solves"; "solves"; "∞" ];
        e12 "consensus object" Cn.Consensus_object [ "solves"; "solves"; "∞" ];
      ];
    table "e13"
      "E13. Set-consensus power classification (the conclusion's yardstick): \
       does the family solve (n,k)-set consensus?"
      ("family" :: List.map (fun (n, k) -> Printf.sprintf "(%d,%d)" n k) e13_grid)
      [
        e13 "registers" P.Registers [ "no"; "yes"; "no"; "no"; "no"; "no" ];
        e13 "WRN_3 objects" (P.Wrn_objects 3)
          [ "no"; "yes"; "no"; "yes"; "no"; "yes" ];
        e13 "WRN_4 objects" (P.Wrn_objects 4)
          [ "no"; "yes"; "no"; "no"; "no"; "yes" ];
        e13 "SSE(3,2) object" (P.Sse_object 3)
          [ "no"; "yes"; "no"; "yes"; "-"; "-" ];
        e13 "SSE(4,3) object" (P.Sse_object 4)
          [ "no"; "yes"; "no"; "no"; "no"; "yes" ];
        e13 "2-consensus pairs" P.Two_consensus_pairs
          [ "yes"; "yes"; "no"; "yes"; "yes"; "yes" ];
        e13 "compare-and-swap" P.Cas_object
          [ "yes"; "yes"; "yes"; "yes"; "yes"; "yes" ];
      ];
    table "e14"
      "E14. Exhaustive protocol-space refutation (Lemma 38's quantifier, \
       discharged for a bounded class)"
      [ "k"; "ops"; "protocols"; "solving"; "example solver" ]
      [
        e14 ~k:2 ~ops:1
          [ "64"; "2"; "P0: wrn@[0] decide[ox] | P1: wrn@[1] decide[ox]" ];
        e14 ~k:3 ~ops:1 [ "144"; "0"; "-" ];
        e14 ~k:4 ~ops:1 [ "256"; "0"; "-" ];
        e14 ~k:2 ~ops:2
          [ "4096"; "72"; "P0: wrn@[0,0] decide[ooox] | P1: wrn@[1,0] decide[ooox]" ];
        e14 ~k:3 ~ops:2 [ "20736"; "0"; "-" ];
      ];
    table "e15"
      "E15. Crash-resilience matrix: first-class crash faults, exhaustive \
       sweeps and wait-freedom certificates"
      [ "instance"; "crash model"; "states/runs"; "outcome" ]
      [
        e15_alg2 0 [ "16"; "safe" ];
        e15_alg2 1 [ "31"; "safe" ];
        e15_alg2 2 [ "37"; "safe" ];
        e15_alg5 [ "2242"; "0 bad / 291 terminals (201 crashed)" ];
        e15_wait_free "Alg 2 (k=3) wait-freedom" (Registry.alg2 ~k:3 ~crashes:0) ~f:2
          [ "37"; "wait-free, solo bound 1" ];
        e15_wait_free "Alg 5 (k=3) wait-freedom" (Registry.alg5 ~k:3) ~f:1
          [ "2242"; "wait-free, solo bound 5" ];
        e15_spinner [ "NOT wait-free (P0 solo-spins)" ];
        e15_bg [ "300"; "300/300 runs block <= 1 simulated (23 blocked some)" ];
      ];
    table "e16"
      "E16. Reduction ratios: symmetry quotienting + source sets vs the \
       plain exhaustive search (base / reduced; deterministic counts)"
      [ "instance"; "crash, group"; "states"; "transitions"; "states x";
        "transitions x" ]
      [
        e16 e16_alg2 0 [ "16 / 6"; "15 / 7"; "2.67x"; "2.14x" ];
        e16 e16_alg2 1 [ "31 / 11"; "42 / 14"; "2.82x"; "3.00x" ];
        e16 e16_alg2 2 [ "37 / 15"; "57 / 18"; "2.47x"; "3.17x" ];
        e16 e16_alg5 0 [ "1126 / 362"; "2007 / 426"; "3.11x"; "4.71x" ];
        e16 e16_alg5 1 [ "2242 / 700"; "5256 / 1120"; "3.20x"; "4.69x" ];
        e16 e16_sc 0 [ "49 / 8"; "63 / 16"; "6.12x"; "3.94x" ];
        e16 e16_sc 1 [ "76 / 13"; "114 / 24"; "5.85x"; "4.75x" ];
        e16 e16_chained 0 [ "703 / 85"; "1266 / 175"; "8.27x"; "7.23x" ];
        e16 e16_chained 1 [ "1231 / 166"; "2622 / 305"; "7.42x"; "8.60x" ];
        e16 e16_wrn 0 [ "16 / 6"; "15 / 7"; "2.67x"; "2.14x" ];
        e16_aggregate [ "5527 / 1372"; "11457 / 2112"; "4.03x"; "5.42x" ];
      ];
    table "e18"
      "E18. Recoverable consensus: which families keep their 2-process \
       consensus power under crash-recovery (exhaustive, n=2; r = recovery \
       budget; crash budget max(1, r))"
      [ "object family"; "r=0"; "r=1"; "r=2" ]
      [
        e18 "register" Cn.Register [ "fails"; "fails"; "fails" ];
        e18 "test-and-set" Cn.Test_and_set [ "solves"; "fails"; "fails" ];
        e18 "fetch-and-add" Cn.Fetch_and_add [ "solves"; "fails"; "fails" ];
        e18 "swap" Cn.Swap [ "solves"; "fails"; "fails" ];
        e18 "queue" Cn.Queue [ "solves"; "fails"; "fails" ];
        e18 "compare-and-swap" Cn.Cas [ "solves"; "solves"; "solves" ];
        e18 "consensus object" Cn.Consensus_object [ "solves"; "solves"; "solves" ];
      ];
    table "scaling"
      "Scaling: canonical state-space sizes the model checker covers \
       (substitution S1's verification dividend)"
      [ "instance"; "states"; "terminals"; "depth" ]
      [
        scaling "Algorithm 2, k=3" (fun () -> alg2_space 3) [ "16"; "6"; "3" ];
        scaling "Algorithm 2, k=4" (fun () -> alg2_space 4) [ "45"; "14"; "4" ];
        scaling "Algorithm 2, k=5" (fun () -> alg2_space 5) [ "121"; "30"; "5" ];
        scaling "Algorithm 2, k=6" (fun () -> alg2_space 6) [ "320"; "62"; "6" ];
        scaling "Algorithm 5, k=2 (full)" (fun () -> alg5_space 2 [ 0; 1 ])
          [ "48"; "4"; "11" ];
        scaling "Algorithm 5, k=3 (full)" (fun () -> alg5_space 3 [ 0; 1; 2 ])
          [ "1126"; "90"; "18" ];
        scaling "Algorithm 5, k=4 (full)" (fun () -> alg5_space 4 [ 0; 1; 2; 3 ])
          [ "60948"; "5348"; "25" ];
      ];
  ]
