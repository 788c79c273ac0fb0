(* Shared test utilities. *)
open Subc_sim
module Verdict = Subc_check.Verdict

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

(* The engine called directly, for its own test knobs [?seq_threshold]
   and [?max_depth]: every other search knob comes from [options].
   [on_terminal] is serialized under a lock, as [Search.iter_terminals]
   serializes its [f]. *)
let parallel_run ?seq_threshold ?max_depth
    ?(on_terminal = fun _ _ -> ()) ?(on_visit = fun _ _ _ -> ())
    (o : Search.options) config =
  let lock = Mutex.create () in
  let on_terminal _ c trace =
    Mutex.protect lock (fun () -> on_terminal c trace)
  in
  Parallel.run ~max_states:o.max_states ?max_depth ~max_crashes:o.max_crashes
    ~max_recoveries:o.max_recoveries ?deadline:o.deadline ~reduction:o.reduction
    ~paranoid:o.paranoid ?seq_threshold ~find_cycle:false ~jobs:o.jobs
    ~on_terminal ~on_visit "test" config
  |> fst

let explore_stats_exn (v : Verdict.t) =
  match (Verdict.stats v).Verdict.explore with
  | Some e -> e
  | None -> Alcotest.fail "verdict carries no exploration stats"

let options_of ?max_states () =
  match max_states with
  | None -> Subc_sim.Search.default
  | Some n -> Subc_sim.Search.(with_max_states n default)

let check_exhaustive ?max_states store ~programs ~inputs ~task =
  match
    Subc_check.Task_check.check
      ~options:(options_of ?max_states ())
      store ~programs ~inputs ~task
  with
  | Verdict.Proved _ as v -> explore_stats_exn v
  | Verdict.Limited _ -> Alcotest.fail "exhaustive check hit the state limit"
  | Verdict.Refuted { reason; trace; _ } ->
    Alcotest.failf "task %s violated: %s@.%a" task.Subc_tasks.Task.name reason
      Trace.pp trace

(* The historical helper semantics (no infinite schedule, no hangs) is
   0-resilient termination; the per-process solo-bound certificate is
   [Subc_check.Progress.check_wait_free], which the determinism matrix
   runs. *)
let check_wait_free ?max_states store ~programs =
  match
    Subc_check.Progress.check_t_resilient
      ~options:(options_of ?max_states ())
      ~t:0 store ~programs
  with
  | Verdict.Proved _ as v -> explore_stats_exn v
  | Verdict.Limited _ -> Alcotest.fail "wait-freedom check hit the state limit"
  | Verdict.Refuted { reason; _ } ->
    Alcotest.failf "wait-freedom violated: %s" reason

(* Run under a fixed schedule (extended round-robin when exhausted). *)
let run_fixed store ~programs ~schedule =
  let config = Config.make store programs in
  Runner.run (Runner.Fixed schedule) config

let decision_exn final i =
  match Config.decision final i with
  | Some v -> v
  | None -> Alcotest.failf "process %d did not decide" i

let test name f = Alcotest.test_case name `Quick f
let test_slow name f = Alcotest.test_case name `Slow f

let seeds n = List.init n (fun i -> 7919 * (i + 1))

(* The configuration a refutation's witness replays to from [config]:
   a terminal for a violation, a configuration with a running process for
   a divergence lasso.  Fails the test unless [v] is refuted and its
   witness replays. *)
let refutation_end config (v : Verdict.t) =
  match v with
  | Verdict.Refuted { trace; _ } -> (
    match Replay.final config trace with
    | Ok c -> c
    | Error { Replay.at; reason } ->
      Alcotest.failf "witness does not replay (event %d: %s)" at reason)
  | v -> Alcotest.failf "expected Refuted, got %a" Verdict.pp_summary v

(* [Subc_check.Refinement.check_refines] must prove [impl] refines
   [spec], both reaching some outcome. *)
let expect_refines ~impl ~spec =
  match Subc_check.Refinement.check_refines () ~impl ~spec with
  | Verdict.Proved _ as v ->
    let metric name =
      int_of_float (List.assoc name (Verdict.stats v).Verdict.metrics)
    in
    Alcotest.(check bool) "spec reachable outcomes nonempty" true
      (metric "spec_outcomes" > 0);
    Alcotest.(check bool) "impl reachable outcomes nonempty" true
      (metric "impl_outcomes" > 0)
  | v -> Alcotest.failf "refinement not proved: %a" Verdict.pp v

(* ---------------------------------------------------------------- *)
(* Harnesses.  The checked-instance record, its property builders and
   the proposal convention ([inputs], [tok]); the paper's families are
   built by [Registry]'s family table.                                  *)

include Subc_check.Harness
module Registry = Subc_analysis.Registry

(* The declared symmetry of a harness that has one. *)
let sym h =
  match h.symmetry with
  | Some s -> s
  | None -> invalid_arg "harness declares no symmetry"

(* A recoverable-consensus family's protocol for n processes and r
   recoveries.  Its property is recoverable consensus, proved by
   [Task_check.verdict]: no process hangs, the decided values agree and
   were proposed, and every schedule terminates; a process still crashed
   at the end decides nothing, which is allowed. *)
let recovery_harness family ~n ~r =
  let store, programs =
    Subc_classic.Recoverable.protocol Store.empty family ~n ~max_recoveries:r
  in
  let h =
    task ~symmetry:None store programs
      ~inputs:(List.init n (fun i -> Value.Int i))
      ~task:Subc_tasks.Task.consensus
  in
  let explain c =
    if Config.any_hung c then Some "a process hangs" else h.explain c
  in
  {
    h with
    explain;
    checker =
      (fun options ->
        Subc_check.Task_check.verdict ~options (root h) ~explain
          ~proved:"recoverable consensus");
  }

(* ---------------------------------------------------------------- *)
(* The determinism matrix.                                            *)

(* The deterministic slice of a search's statistics: every field the
   engine promises at any jobs, backing and key mode. *)
let same_counts name (a : Explore.stats) (b : Explore.stats) =
  let int field get =
    Alcotest.(check int) (name ^ " " ^ field) (get a) (get b)
  in
  int "states" (fun s -> s.Explore.states);
  int "transitions" (fun s -> s.Explore.transitions);
  int "terminals" (fun s -> s.Explore.terminals);
  int "hung" (fun s -> s.Explore.hung_terminals);
  int "crashed" (fun s -> s.Explore.crashed_terminals);
  int "recovered" (fun s -> s.Explore.recovered_terminals);
  int "dedup" (fun s -> s.Explore.dedup_hits);
  int "source_skips" (fun s -> s.Explore.source_skips);
  Alcotest.(check bool) (name ^ " limited") a.Explore.limited b.Explore.limited

(* An [on_visit] for a search that spawns its helpers at the root: it
   holds the calling domain at its second visit until some helper has
   visited a node, or for 20 ms.  By then the caller has handed the
   root's first child to the idle helpers, so a steal does not depend on
   the helpers being scheduled before the caller finishes a small space.
   (Under symmetry the stolen child may be a duplicate of the caller's,
   which no helper visits; the wait then runs out.) *)
let handover () =
  let seen = ref 0 and helped = Atomic.make false in
  fun id _ _ ->
    if id <> 0 then Atomic.set helped true
    else begin
      incr seen;
      if !seen = 2 then begin
        let until = Unix.gettimeofday () +. 0.02 in
        while (not (Atomic.get helped)) && Unix.gettimeofday () < until do
          Unix.sleepf 1e-4
        done
      end
    end

(* [agree name h ~f ~r ~expect] runs every engine configuration on [h] at
   crash budget [f] and recovery budget [r], where [h]'s property has
   status [expect].  It returns one test body per reduction level (none,
   source, then sym and full if [h] declares a symmetry), failing unless
   that level's cells agree and agree with the levels it is compared to
   below; each level's search runs once, for the first body needing it.
   The cells are jobs 1, jobs 4 through [Search] at the default spawn
   threshold and jobs 4 spawning at the root, crossed with two visited
   tables: the two-lane table and, under [~paranoid], the exact one.

   Counts.  Every cell must report the first (jobs-1 heap) cell's
   [same_counts], never be limited and keep a live frontier gauge;
   jobs-1 cells also agree on [max_depth].  The collision bound is 0
   under [~paranoid] and otherwise the 124-bit birthday bound, below
   1e-6.
   Every cell keys each transition once, by a patch of its carried
   fingerprint or by a reused delta, with symmetry on or off; only a
   cell whose key is the carried fingerprint
   ([Explore.claims_carried_fingerprint]) reuses one, and with
   [~reuses] every such cell at a crash budget [f >= 1] does.  Paranoid
   cells re-fold the fingerprint at every state.
   With [~steals] every root-spawning cell records a steal.  A budget
   with recoveries reaches a recovered terminal.  A symmetry beyond the
   identity explores fewer states than the unreduced search.  Source
   sets keep the unreduced terminal, hung and crashed counts, the full
   reduction keeps the symmetry-only ones, and each explores fewer
   transitions than the search it refines (and full than the unreduced
   one) when it skips one.

   Verdicts.  Every cell's terminal callback runs once per terminal and
   counts the terminals [h.explain] rejects: the count agrees across a
   level's cells and between none and source, it is non-zero exactly
   when [expect] is [`Refuted], and the first one's trace replays from
   the root to a terminal [h.explain] rejects.  Per level, [h.checker]
   runs at jobs 1 and 4 on each table: it reports [expect] with the same
   metrics in every cell, a proof has the level's [same_counts], and a
   refutation's witness replays as a cell's does.  With [~solo_bound],
   at [r = 0], [Progress.check_wait_free] runs in the same cells and
   proves that bound over every configuration of the level's search
   without source sets, which it strips. *)
let agree ?(steals = false) ?(reuses = false) ?solo_bound name h ~f ~r
    ~expect =
  let config = root h in
  let engines = [ ("j1", 1, None); ("j4", 4, None); ("j4 eager", 4, Some 0) ] in
  let budget = Printf.sprintf "%s f=%d r=%d" name f r in
  let replays cell trace =
    match Replay.final config trace with
    | Ok c ->
      Alcotest.(check bool)
        (cell ^ " witness violates") true (Option.is_some (h.explain c))
    | Error { Replay.at; reason } ->
      Alcotest.failf "%s: witness does not replay (event %d: %s)" cell at
        reason
  in
  let level label ?reach (reduction : Explore.reduction) =
    let tables = [ ("heap", false); ("paranoid", true) ] in
    let options ~jobs ~paranoid =
      Search.(
        default |> with_max_crashes f |> with_max_recoveries r
        |> with_reduction reduction |> with_paranoid paranoid
        |> with_jobs jobs)
    in
    let base = ref None in
    List.iter
      (fun (elabel, jobs, seq_threshold) ->
        List.iter
          (fun (tlabel, paranoid) ->
            let cell = Printf.sprintf "%s %s %s %s" budget label elabel tlabel in
            let options = options ~jobs ~paranoid in
            let calls = ref 0 and violations = ref 0 and witness = ref None in
            let on_terminal final trace =
              incr calls;
              if Option.is_some (h.explain final) then begin
                incr violations;
                if !witness = None then witness := Some trace
              end
            in
            let s =
              match seq_threshold with
              | None -> Search.iter_terminals ~options config ~f:on_terminal
              | Some _ ->
                let on_visit =
                  if steals then handover () else fun _ _ _ -> ()
                in
                parallel_run ?seq_threshold ~on_terminal ~on_visit options
                  config
            in
            if Option.is_none !base then base := Some (s, !violations);
            let b, bv = Option.get !base in
            same_counts cell b s;
            Alcotest.(check int)
              (cell ^ " one callback per terminal") s.Explore.terminals !calls;
            Alcotest.(check int) (cell ^ " violations") bv !violations;
            Option.iter (replays cell) !witness;
            if jobs = 1 then
              Alcotest.(check int)
                (cell ^ " max_depth") b.Explore.max_depth s.Explore.max_depth;
            Alcotest.(check bool)
              (cell ^ " never limited") false s.Explore.limited;
            Alcotest.(check bool)
              (cell ^ " frontier gauge") true (s.Explore.frontier_bytes > 0);
            Alcotest.(check (float 0.0))
              (cell ^ " collision bound")
              (if paranoid then 0.0
               else Explore.collision_bound ~bits:124 ~states:s.Explore.states)
              s.Explore.collision_bound;
            if not paranoid then
              Alcotest.(check bool)
                (cell ^ " bound below 1e-6") true
                (s.Explore.collision_bound > 0.0
                && s.Explore.collision_bound < 1e-6);
            if paranoid then
              Alcotest.(check bool)
                (cell ^ " re-folds every state") true
                (s.Explore.fp_refolds >= s.Explore.states);
            Alcotest.(check int)
              (cell ^ " one patch or reuse per transition")
              s.Explore.transitions
              (s.Explore.fp_patches + s.Explore.fp_reused);
            if
              not
                (Explore.claims_carried_fingerprint ~paranoid ~find_cycle:false
                   reduction)
            then
              Alcotest.(check int) (cell ^ " no reuse") 0 s.Explore.fp_reused
            else if reuses && f >= 1 then
              Alcotest.(check bool)
                (cell ^ " some transition keyed by reuse") true
                (s.Explore.fp_reused > 0);
            if steals && seq_threshold <> None then
              Alcotest.(check bool)
                (cell ^ " steals") true
                (s.Explore.steals > 0))
          tables)
      engines;
    let counts, violations = Option.get !base in
    Alcotest.(check bool)
      (Printf.sprintf "%s %s some terminal violates" budget label)
      (expect = `Refuted) (violations > 0);
    (* [proved cell v] judges a proof of [run]. *)
    let checker cname run status proved =
      let first = ref None in
      List.iter
        (fun (elabel, jobs) ->
          List.iter
            (fun (tlabel, paranoid) ->
              let cell =
                String.concat " " [ budget; label; cname; elabel; tlabel ]
              in
              let v = run (options ~jobs ~paranoid) in
              Alcotest.(check string)
                (cell ^ " status") status (Verdict.status_string v);
              (match v with
              | Verdict.Refuted { trace; _ } -> replays cell trace
              | v -> proved cell v);
              let metrics = (Verdict.stats v).Verdict.metrics in
              if !first = None then first := Some metrics;
              Alcotest.(check (list (pair string (float 0.0))))
                (cell ^ " metrics") (Option.get !first) metrics)
            tables)
        [ ("j1", 1); ("j4", 4) ]
    in
    checker "checker" h.checker
      (match expect with `Proved -> "proved" | `Refuted -> "refuted")
      (fun cell v -> same_counts cell counts (explore_stats_exn v));
    let reach = Option.value reach ~default:counts in
    if r = 0 then
      Option.iter
        (fun bound ->
          checker "wait-free"
            (fun options ->
              Subc_check.Progress.check_wait_free ~options h.store
                ~programs:h.programs)
            "proved"
            (fun cell v ->
              same_counts cell reach (explore_stats_exn v);
              Alcotest.(check (list (pair string (float 0.0))))
                (cell ^ " solo bound and configs")
                [ ("solo_bound", float_of_int bound);
                  ("configs", float_of_int reach.Explore.states) ]
                (Verdict.stats v).Verdict.metrics))
        solo_bound;
    (counts, violations)
  in
  let same_terminals what (a : Explore.stats) (b : Explore.stats) =
    let vs field get =
      Alcotest.(check int) (budget ^ " " ^ what ^ " " ^ field) (get a) (get b)
    in
    vs "terminals" (fun s -> s.Explore.terminals);
    vs "hung" (fun s -> s.Explore.hung_terminals);
    vs "crashed" (fun s -> s.Explore.crashed_terminals)
  in
  let prunes what (s : Explore.stats) (than : Explore.stats) =
    if s.Explore.source_skips > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "%s %s prunes transitions" budget what)
        true
        (s.Explore.transitions < than.Explore.transitions)
  in
  (* Each level runs once, when the first case that needs it forces
     it. *)
  let run label ?reach reduction =
    lazy
      (level label
         ?reach:(Option.map (fun l -> fst (Lazy.force l)) reach)
         reduction)
  in
  let counts l = fst (Lazy.force l) in
  let none = run "none" Explore.no_reduction in
  let source = run "source" ~reach:none Explore.source_only in
  let recovered () =
    Alcotest.(check bool) (budget ^ " some terminal recovered") true
      (r = 0 || (counts none).Explore.recovered_terminals > 0)
  in
  let against_none () =
    let (none, nv), (source, sv) = (Lazy.force none, Lazy.force source) in
    same_terminals "source vs none" none source;
    Alcotest.(check int) (budget ^ " source vs none violations") nv sv;
    prunes "source vs none" source none
  in
  ("none", recovered) :: ("source", against_none) ::
  match h.symmetry with
  | None -> []
  | Some sym ->
    let symmetric = run "sym" (Explore.with_symmetry sym) in
    let full = run "full" ~reach:symmetric (Explore.full_reduction sym) in
    let quotients () =
      let s = counts symmetric in
      if List.length (Symmetry.perms sym) > 1 then
        Alcotest.(check bool) (budget ^ " sym quotients the states") true
          (s.Explore.states < (counts none).Explore.states)
    in
    let refines () =
      let symmetric = counts symmetric and full = counts full in
      same_terminals "full vs sym" symmetric full;
      prunes "full vs none" full (counts none);
      prunes "full vs sym" full symmetric
    in
    [ ("sym", quotients); ("full", refines) ]

(* Two processes, each writing its own register twice: 1, then 2.  The
   registers count their [apply] calls in the returned counter, so a
   test can tell which transitions a search stepped. *)
let counted_writers () =
  let applies = Atomic.make 0 in
  let model =
    Obj_model.deterministic ~kind:"counted-register" ~init:Value.Bot
      (fun _ op ->
        Atomic.incr applies;
        match (op.Op.name, op.Op.args) with
        | "write", [ v ] -> (v, Value.Unit)
        | _ -> Obj_model.bad_op "counted-register" op)
  in
  let store, regs = Store.alloc_many Store.empty 2 model in
  let write h v = Program.invoke h (Op.make "write" [ Value.Int v ]) in
  let programs =
    List.map
      (fun h ->
        Program.Syntax.(
          let* _ = write h 1 in
          write h 2))
      regs
  in
  (applies, Config.make store programs)
