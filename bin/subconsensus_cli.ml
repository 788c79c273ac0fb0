(* Command-line driver: run, model-check and trace the paper's algorithms.

   Every checking subcommand funnels its results through one output
   contract: a [Subc_check.Verdict.t] printed either as human-readable
   text or as one JSON object per line (--json), and the shared exit
   codes 0 proved / 1 refuted / 2 limited (for sweeps, refuted wins over
   limited).  --metrics streams observability events and a final metrics
   snapshot; --reduction selects the state-space reductions.

   One command per job: check (one exhaustive verdict), explore (raw
   state-space statistics), crash-sweep (a verdict per crash and recovery
   budget, then wait-freedom), sample (seeded random runs), analyze (the
   static soundness analyzer), and the single-protocol tools attempt,
   critical, trace, power and bg.  check, explore and crash-sweep read
   their search flags through one shared term.

   Examples:
     subconsensus_cli check --alg alg2 -k 4
     subconsensus_cli analyze --family alg2 --json
     subconsensus_cli check --alg alg5 -k 3 --reduction full --certified
     subconsensus_cli check --alg alg5 -k 3 --reduction full --json
     subconsensus_cli explore --alg alg5 -k 3 --reduction full --metrics
     subconsensus_cli crash-sweep --alg alg2 -k 3 --max-crashes 2
     subconsensus_cli crash-sweep --alg alg2 -k 3 --max-crashes 1 --max-recoveries 1
     subconsensus_cli sample --alg alg2 -k 6 --seeds 500
     subconsensus_cli attempt --style mirror -k 3
     subconsensus_cli trace -k 3 --seed 7 *)

open Cmdliner
open Subc_sim
module Task = Subc_tasks.Task
module Obs = Subc_obs
module Verdict = Subc_check.Verdict
module Harness = Subc_check.Harness
module Registry = Subc_analysis.Registry

(* ------------------------------------------------------------------ *)
(* Shared output plumbing: sink setup, verdict reporting, exit codes.  *)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Machine-readable output: one JSON object per verdict (and per \
           observability event with $(b,--metrics)) on stdout.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Stream observability events (explorations, runs, spans) and \
           print a metrics snapshot at exit.")

let reduction_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("none", `None); ("source", `Source); ("sym", `Sym);
             ("full", `Full) ])
        `None
    & info [ "reduction" ] ~docv:"RED"
        ~doc:
          "State-space reduction: $(b,none), $(b,source) (source sets — \
           partial-order reduction), $(b,sym) (symmetry quotienting), or $(b,full) (both).  Every \
           reduction runs at full strength at any $(b,--jobs).  \
           Algorithms with no symmetry group fall back to dead-state \
           erasure for $(b,sym)/$(b,full).")

let setup_obs ~json ~metrics =
  if metrics then
    Obs.Sink.set (if json then Obs.Sink.jsonl stdout else Obs.Sink.stderr_sink)

let finish_obs ~metrics =
  if metrics then begin
    Obs.Metrics.emit_snapshot ();
    Obs.Sink.flush ()
  end

let report ~json name v =
  if json then print_endline (Verdict.to_json ~name v)
  else Format.printf "@[<v>[%s] %a@]@." name Verdict.pp v

(* The one exit-code contract: 0 proved / 1 refuted / 2 limited; over a
   sweep, a refutation (conclusive) wins over a truncation. *)
let finish ~metrics verdicts =
  finish_obs ~metrics;
  Verdict.combined_exit verdicts

(* ------------------------------------------------------------------ *)
(* Reductions.  With --certified, a reduction is only enabled after the
   static soundness analyzer proves every obligation (purity,
   commutation, equivariance, classification) for the family's
   registered objects; the reduction is then built through
   [Explore.certified_reduction].  A non-proved finding refuses the run
   with the refutation exit code.  Every family in the table declares a
   symmetry (the always-sound dead-state erasure where identifiers or
   group vectors break process symmetry). *)

let reduction_of ~certified (entry : Registry.entry) choice (h : Harness.t) =
  let sym () = Option.get h.symmetry in
  let certify symmetry ~source_sets =
    match Subc_analysis.Analyzer.certify ~family:entry.family entry.subjects with
    | Ok certificate ->
      Explore.certified_reduction ~certificate ~source_sets symmetry
    | Error findings ->
      Format.eprintf "@[<v>analyzer refuses to certify %s:@,%a@]@."
        entry.family
        (Format.pp_print_list Subc_analysis.Analyzer.pp_finding)
        findings;
      exit 1
  in
  match choice with
  | `None -> None
  | `Source ->
    Some
      (if certified then certify None ~source_sets:true
       else Explore.source_only)
  | `Sym ->
    Some
      (if certified then certify (Some (sym ())) ~source_sets:false
       else Explore.with_symmetry (sym ()))
  | `Full ->
    Some
      (if certified then certify (Some (sym ())) ~source_sets:true
       else Explore.full_reduction (sym ()))

(* The family table's instance of [entry] at size (n, k); [n] = 0 means
   2k. *)
let harness_of (entry : Registry.entry) ~n ~k ~crashes =
  Option.get entry.harness ~n:(if n = 0 then 2 * k else n) ~k ~crashes

(* Shared flags. *)
let k_arg = Arg.(value & opt int 3 & info [ "k" ] ~doc:"WRN arity $(docv).")
let n_arg =
  Arg.(value & opt int 0 & info [ "n" ] ~doc:"Process count (alg6; 0 means 2k).")
let seeds_arg =
  Arg.(value & opt int 200 & info [ "seeds" ] ~doc:"Number of random runs.")
let alg_arg ?(doc = "Algorithm: $(docv).") algs =
  Arg.(
    value
    & opt (enum (List.map (fun a -> (a, a)) algs)) "alg2"
    & info [ "alg" ] ~docv:"ALG" ~doc)
let crashes_arg =
  Arg.(
    value & opt int 0
    & info [ "max-crashes" ] ~docv:"F" ~doc:"Crash budget $(docv).")
let max_states_arg =
  Arg.(
    value & opt int 5_000_000
    & info [ "max-states" ] ~doc:"State budget per exploration.")
let recoveries_arg =
  Arg.(
    value & opt int 0
    & info [ "max-recoveries" ] ~docv:"R"
        ~doc:
          "Recovery budget $(docv): additionally quantify over every \
           crash-recovery pattern with at most $(docv) recoveries (a \
           recovered process restarts its program over persistent object \
           state).  $(b,crash-sweep) sweeps r = 0..$(docv).")
let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget in seconds: stop the exploration gracefully \
           when it elapses and downgrade the verdict to limited (exit 2).  \
           Applies per exploration, at any $(b,--jobs).")
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Explore with $(docv) domains (multicore).  Verdicts and state \
           counts are deterministic across $(docv); witness traces may \
           differ.  Source sets and symmetry both compose with parallel \
           search: stolen subtrees prune identically to the sequential \
           explorer.")

let certified_arg =
  Arg.(
    value & flag
    & info [ "certified" ]
        ~doc:
          "Demand an analyzer certificate before enabling any reduction: \
           run the static soundness analyzer over the algorithm's \
           registered objects and refuse to start (exit 1) unless every \
           commutation, equivariance and classification obligation is \
           proved.  The certificate is minted at the registered objects' \
           own sizes, so at another $(b,-k) or $(b,-n) it covers the \
           object classes run, not their size.")

(* ------------------------------------------------------------------ *)
(* The search flags check, explore and crash-sweep share, resolved into
   the family table's instance and one [Search.options] record.
   Resolution is a thunk, run by the command after it installs its sink,
   so that building the instance and certifying a reduction happen inside
   the command.                                                          *)

type search = {
  alg : string;
  h : Harness.t;
  crashes : int;  (** the --max-crashes value *)
  options : Search.options;
      (** at crash budget max(F, R) — a recovery presupposes a crash —
          and recovery budget R *)
}

(* Apply an optional flag's [Search.with_*] builder. *)
let opt with_ x o = match x with None -> o | Some v -> with_ v o

let search_term ?(n = Term.const 0) crashes =
  let resolve alg n k f r deadline max_states jobs choice certified () =
    let entry = Option.get (Registry.find alg) in
    let h = harness_of entry ~n ~k ~crashes:(max f r) in
    let reduction = reduction_of ~certified entry choice h in
    let options =
      Search.default
      |> Search.with_max_states max_states
      |> Search.with_max_crashes (max f r)
      |> Search.with_max_recoveries r
      |> Search.with_jobs jobs
      |> opt Search.with_deadline deadline
      |> opt Search.with_reduction reduction
    in
    { alg; h; crashes = f; options }
  in
  Term.(
    const resolve
    $ alg_arg [ "alg2"; "alg3"; "alg5"; "alg6" ]
    $ n $ k_arg $ crashes $ recoveries_arg $ deadline_arg $ max_states_arg
    $ jobs_arg $ reduction_arg $ certified_arg)

(* ------------------------------------------------------------------ *)
(* check: one verdict per invocation, under the shared contract.       *)

let check_cmd =
  let run search json metrics =
    setup_obs ~json ~metrics;
    let { alg; h; options; _ } = search () in
    let v = h.checker options in
    report ~json alg v;
    finish ~metrics [ v ]
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check an algorithm's defining property (task conformance \
          for alg2/alg3/alg6, linearizability against 1sWRN for alg5) and \
          report a verdict.  Exits 0 proved / 1 refuted / 2 limited.")
    Term.(const run $ search_term ~n:n_arg crashes_arg $ json_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* explore: raw state-space statistics, with or without reductions.    *)

let explore_cmd =
  let run search json metrics =
    setup_obs ~json ~metrics;
    let { alg; h; options; _ } = search () in
    let stats =
      Obs.Span.time "cli.explore" @@ fun () ->
      Search.iter_terminals ~options (Harness.root h)
        ~f:(fun _ _ -> ())
    in
    let reduction =
      Format.asprintf "%a" Explore.pp_reduction options.Search.reduction
    in
    if json then
      print_endline
        (Obs.Sink.json_of_event
           {
             Obs.Sink.name = "explore";
             fields =
               ("alg", Obs.Sink.Str alg)
               :: ("jobs", Obs.Sink.Int options.Search.jobs)
               :: ("reduction", Obs.Sink.Str reduction)
               :: Explore.stats_fields stats;
           })
    else Format.printf "[%s] %s@.%a@." alg reduction Explore.pp_stats stats;
    finish_obs ~metrics;
    if stats.Explore.limited then 2 else 0
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore an algorithm's state space and print exploration \
          statistics (states, transitions, reduction effect, limit \
          reason).  Exits 0, or 2 when the search was truncated.")
    Term.(const run $ search_term ~n:n_arg crashes_arg $ json_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* sample: seeded random runs of a task algorithm.                      *)

let sample_cmd =
  let run alg n k n_seeds metrics =
    setup_obs ~json:false ~metrics;
    let h = harness_of (Option.get (Registry.find alg)) ~n ~k ~crashes:0 in
    let n = List.length h.programs in
    if alg = "alg6" then
      Format.printf "agreement bound m = %d (n=%d, k=%d)@."
        (Subc_core.Alg6.agreement_bound ~n ~k) n k;
    match h.property with
    | Harness.Other _ -> assert false (* alg5 is not an --alg choice here *)
    | Harness.Task { inputs; task } ->
      let seeds = List.init n_seeds (fun i -> i + 1) in
      let s =
        Subc_check.Task_check.sample h.store ~programs:h.programs ~inputs ~task
          ~seeds
      in
      Format.printf "%a@." Subc_check.Task_check.pp_sample_stats s;
      Option.iter
        (fun (reason, trace) ->
          Format.printf "first violation: %s@.%a@." reason Trace.pp trace)
        s.Subc_check.Task_check.first_violation;
      finish_obs ~metrics;
      if s.Subc_check.Task_check.violations = 0 then 0 else 1
  in
  let alg =
    alg_arg [ "alg2"; "alg3"; "alg6" ]
      ~doc:
        "Task algorithm: $(docv).  Algorithm 5 has no sampled mode: its \
         property is linearizability, checked by $(b,check --alg alg5)."
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Run a set-consensus algorithm on $(b,--seeds) random schedules \
          (seeds 1..N) and report the distinct-decision histogram and the \
          first task violation.  Exits 0, or 1 on any violation.")
    Term.(const run $ alg $ n_arg $ k_arg $ seeds_arg $ metrics_arg)

let styles =
  Subc_classic.Wrn_attempts.
    [
      ("mirror", Mirror_alg2); ("same-index", Same_index);
      ("announce", Adjacent_announce); ("busy-wait", Busy_wait);
    ]

(* The two-process consensus attempt over WRN_k that attempt and critical
   examine. *)
let attempt_config ~k style =
  let module W = Subc_classic.Wrn_attempts in
  let store, t = W.alloc Store.empty ~k ~style:(List.assoc style styles) in
  Config.make store
    [ W.propose t ~me:0 (Value.Int 0); W.propose t ~me:1 (Value.Int 1) ]

let style_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (s, _) -> (s, s)) styles)) "mirror"
    & info [ "style" ]
        ~doc:"Protocol style: mirror | same-index | announce | busy-wait.")

let attempt_cmd =
  let run style k json metrics =
    setup_obs ~json ~metrics;
    let v =
      Subc_check.Valence.consensus_verdict (attempt_config ~k style)
        ~inputs:[ Value.Int 0; Value.Int 1 ]
    in
    report ~json ("attempt/" ^ style) v;
    finish ~metrics [ v ]
  in
  Cmd.v
    (Cmd.info "attempt"
       ~doc:
         "Verdict on a 2-consensus attempt over WRN_k (Lemma 38 / E6).  \
          Exits 0 solves / 1 violates or diverges / 2 unknown.")
    Term.(const run $ style_arg $ k_arg $ json_arg $ metrics_arg)

let trace_cmd =
  let run k seed =
    let r =
      Runner.run (Runner.Random seed) (Harness.root (Registry.alg2 ~k ~crashes:0))
    in
    Format.printf "%a@.decisions: %a@." Trace.pp r.Runner.trace Value.pp
      (Value.Vec (Config.decisions r.Runner.final));
    0
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print one full execution of Algorithm 2.")
    Term.(const run $ k_arg $ seed_arg)

let power_cmd =
  let run n k =
    let module P = Subc_classic.Set_consensus_power in
    let families =
      [
        P.Registers; P.Wrn_objects 3; P.Wrn_objects 4; P.Sse_object 3;
        P.Two_consensus_pairs; P.Cas_object;
      ]
    in
    List.iter
      (fun family ->
        if P.applicable family ~n then begin
          let verdict =
            match P.verdict family ~n ~k with
            | Verdict.Proved _ -> "solves"
            | Verdict.Refuted _ -> "fails"
            | Verdict.Limited _ -> "unknown"
          in
          Format.printf "%-20s (%d,%d)-set consensus: %-8s (predicted %s)@."
            (P.family_name family) n k verdict
            (if P.predicted family ~n ~k then "solves" else "fails")
        end)
      families;
    0
  in
  let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Process count.") in
  let k_bound = Arg.(value & opt int 2 & info [ "agree" ] ~doc:"Agreement bound.") in
  Cmd.v
    (Cmd.info "power"
       ~doc:"Which object families solve (n,k)-set consensus (experiment E13).")
    Term.(const run $ n_arg $ k_bound)

let bg_cmd =
  let run simulators m seed =
    let codes =
      List.init m (fun p ->
          Subc_bgsim.Sim_code.write_then_snapshot (Harness.tok p) Fun.id)
    in
    let store, bg = Subc_bgsim.Bg.alloc Store.empty ~simulators ~codes in
    let programs = List.init simulators (fun me -> Subc_bgsim.Bg.simulate bg ~me) in
    let config = Config.make store programs in
    let r = Runner.run (Runner.Random seed) config in
    Format.printf "%d real steps@." r.Runner.steps;
    List.iteri
      (fun s out ->
        match out with
        | Some view ->
          Format.printf "simulator %d: %a@." s Value.pp view
        | None -> Format.printf "simulator %d: (unfinished)@." s)
      (List.init simulators (fun s -> Config.decision r.Runner.final s));
    0
  in
  let sims_arg =
    Arg.(value & opt int 2 & info [ "simulators" ] ~doc:"Real simulators.")
  in
  let m_arg =
    Arg.(value & opt int 3 & info [ "m" ] ~doc:"Simulated processes.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "bg" ~doc:"Run the Borowsky–Gafni simulation on a random schedule.")
    Term.(const run $ sims_arg $ m_arg $ seed_arg)

let critical_cmd =
  let run k style =
    let config = attempt_config ~k style in
    match Subc_check.Valence.find_critical config with
    | Some descent ->
      Format.printf "%a@." Subc_check.Valence.pp_descent descent;
      (match descent with
      | Subc_check.Valence.Critical _ -> 0
      | Subc_check.Valence.Disagreement _ -> 1)
    | None ->
      if Subc_check.Valence.valence config = [] then
        Format.printf
          "no execution from the initial configuration terminates@."
      else Format.printf "the initial configuration is univalent@.";
      0
    | exception Failure msg ->
      Format.eprintf "error: %s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "critical"
       ~doc:
         "Descend to a critical configuration of a 2-consensus protocol \
          over WRN_k (the Lemma 38 structure), or to the terminal that \
          violates agreement when the descent meets one first.  Exits 1 \
          when it reports an agreement violation (the protocol is \
          refuted, as $(b,attempt) reports it), 2 with an error when a \
          valence search is truncated by its state budget, and 0 \
          otherwise.")
    Term.(const run $ k_arg $ style_arg)

(* ------------------------------------------------------------------ *)
(* analyze: the static soundness analyzer over the subject registry.   *)

let analyze_cmd =
  let run family lint jobs deadline json metrics =
    setup_obs ~json ~metrics;
    let entries =
      match family with
      | "all" -> Subc_analysis.Registry.entries ()
      | f -> (
        match Subc_analysis.Registry.find f with
        | Some e -> [ e ]
        | None ->
          Format.eprintf "unknown family %S (known: all, %s)@." f
            (String.concat ", " (Subc_analysis.Registry.families ()));
          exit 2)
    in
    let findings =
      if lint then
        let family = if family = "all" then None else Some family in
        Subc_analysis.Analyzer.lint ?family ()
      else
        List.concat_map
          (fun (e : Subc_analysis.Registry.entry) ->
            Subc_analysis.Analyzer.analyze
              ~family:e.Subc_analysis.Registry.family ~jobs ?deadline
              e.Subc_analysis.Registry.subjects)
          entries
    in
    List.iter
      (fun f ->
        if json then print_endline (Subc_analysis.Analyzer.to_json f)
        else Format.printf "%a@." Subc_analysis.Analyzer.pp_finding f)
      findings;
    finish ~metrics (Subc_analysis.Analyzer.verdicts findings)
  in
  let lint_arg =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Run the protocol linter instead of the object analyzer: \
             abstractly interpret every registered protocol exemplar \
             against its family's declared alphabets, reporting static \
             footprints, syntactic step bounds, and DSL soundness lints \
             (checkpoints whose key misses live loop state, ops outside \
             the declared alphabet, invocations on undeclared objects, \
             nondeterministic continuations).  Any lint is a refutation \
             (exit 1); widened analyses exit 2.")
  in
  let family_arg =
    Arg.(
      value & opt string "all"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Registry family to analyze ($(b,all), $(b,objects), \
             $(b,alg2) .. $(b,alg6), $(b,1swrn), $(b,set-consensus)).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically certify the reduction layer's soundness obligations: \
          enumerate each registered object's reachable states and prove \
          apply purity, pairwise commutation wherever the source-set \
          judgment claims independence, the source-set closure property \
          (equivariance of that judgment; persistence across steps is \
          deliberately not demanded, as the explorer re-judges carried \
          sleep entries at every state), equivariance of the declared \
          symmetry group, the crash-recovery projection, and the declared \
          classification — or refute with a concrete witness.  No schedules are \
          explored.  $(b,--deadline) bounds the wall clock: checks not \
          started before it passes report limited.  With $(b,--lint), run \
          the protocol-side gate instead: the abstract interpreter over \
          every registered protocol exemplar.  Exits 0 proved / 1 \
          refuted / 2 limited.")
    Term.(
      const run $ family_arg $ lint_arg $ jobs_arg $ deadline_arg $ json_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* crash-sweep: a verdict per fault budget plus a progress verdict, all
   under the shared contract.  The cells cover f = 0..F crashes and
   r = 0..R recoveries; an r = 0 cell carries no recovery suffix in its
   name, so at the default R = 0 the sweep is the plain crash sweep.     *)

let crash_sweep_cmd =
  let run search solo_limit json metrics =
    setup_obs ~json ~metrics;
    let { alg; h; crashes = f; options } = search () in
    let r = options.Search.max_recoveries in
    let verdicts = ref [] in
    let note name v =
      verdicts := v :: !verdicts;
      report ~json name v
    in
    let rcell r' = if r' > 0 then Printf.sprintf "/r=%d" r' else "" in
    let cell f' r' =
      options
      |> Search.with_max_crashes (max f' r')
      |> Search.with_max_recoveries r'
    in
    (match h.property with
    | Harness.Task { task; _ } ->
      for f' = 0 to f do
        for r' = 0 to r do
          note
            (Printf.sprintf "%s/%s/f=%d%s" alg task.Task.name f' (rcell r'))
            (h.checker (cell f' r'))
        done
      done
    | Harness.Other property ->
      for r' = 0 to r do
        note
          (Printf.sprintf "%s/%s/f<=%d%s" alg property f (rcell r'))
          (h.checker (cell f r'))
      done);
    note (alg ^ "/wait-free")
      (Subc_check.Progress.check_wait_free ~options ~solo_limit h.store
         ~programs:h.programs);
    finish ~metrics (List.rev !verdicts)
  in
  let crashes =
    Arg.(
      value & opt int 1
      & info [ "max-crashes" ] ~docv:"F"
          ~doc:"Crash budget $(docv) (sweep f = 0..$(docv)).")
  in
  let solo_limit_arg =
    Arg.(
      value & opt int 10_000
      & info [ "solo-limit" ] ~doc:"Solo-step bound for the progress checker.")
  in
  Cmd.v
    (Cmd.info "crash-sweep"
       ~doc:
         "Exhaustive crash-fault sweep: verify the algorithm's property \
          under every crash pattern within the budget — and, with \
          $(b,--max-recoveries), every crash-recovery pattern within the \
          recovery budget (a recovered process restarts over persistent \
          object state) — then certify wait-freedom (solo-step bound) \
          under the same fault budgets.  Exits 1 on any refutation, else 2 \
          when any search was truncated.")
    Term.(
      const run $ search_term crashes $ solo_limit_arg $ json_arg
      $ metrics_arg)

let () =
  let doc = "sub-consensus deterministic objects: runners and model checkers" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "subconsensus_cli" ~doc)
          [
            check_cmd; explore_cmd; crash_sweep_cmd; sample_cmd; analyze_cmd;
            attempt_cmd; trace_cmd; power_cmd; bg_cmd; critical_cmd;
          ]))
