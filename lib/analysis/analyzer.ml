open Subc_sim
module Verdict = Subc_check.Verdict

type finding = {
  family : string;
  subject : string;
  check : string;
  verdict : Verdict.t;
}

let check_names =
  [
    "reachability";
    "commutation";
    "source-closure";
    "equivariance";
    "recovery";
    "classification";
  ]

(* A proof over a truncated enumeration is no proof: downgrade to Limited,
   keeping the metrics. *)
let seal (space : Reach.space) v =
  match v with
  | Verdict.Proved st when space.Reach.truncated ->
    Verdict.Limited
      { st with Verdict.note = st.Verdict.note ^ " (truncated enumeration)" }
  | v -> v

let flaw_verdict f =
  Verdict.refuted ~trace:[] (Format.asprintf "%a" Reach.pp_flaw f)

(* Checks walk slightly beyond the enumerated states (diamond completions,
   renamed or value-swapped states); purity flaws surfacing there are
   refutations of the same reachability obligations. *)
let guarded f = try f () with Reach.Flaw flaw -> flaw_verdict flaw

(* The subject's group, as its reports name it. *)
let group (s : Subject.t) = Symmetry.group_name s.Subject.symmetry

let space_metrics (space : Reach.space) =
  [
    ("states", float_of_int space.Reach.n_states);
    ("edges", float_of_int space.Reach.n_edges);
    ("depth", float_of_int space.Reach.depth);
  ]

let reach_verdict (s : Subject.t) = function
  | Error f -> flaw_verdict f
  | Ok (space : Reach.space) ->
    let metrics = space_metrics space in
    if space.Reach.truncated then
      Verdict.limited ~metrics
        (Printf.sprintf
           "state budget (%d) exhausted before the space closed"
           s.Subject.max_states)
    else
      let scope =
        match s.Subject.bound with
        | Subject.Closure -> "closed"
        | Subject.Ops d -> Printf.sprintf "within a %d-op budget" d
      in
      Verdict.proved ~metrics
        (Printf.sprintf "%d states, %d edges, apply pure and total (%s)"
           space.Reach.n_states space.Reach.n_edges scope)

let commute_verdict (s : Subject.t) space =
  guarded (fun () ->
      match Commute.check s space with
      | Error race ->
        Verdict.refuted ~trace:[] (Format.asprintf "%a" Commute.pp_race race)
      | Ok (st : Commute.stats) ->
        seal space
          (Verdict.proved
             ~metrics:
               [
                 ("pairs", float_of_int st.Commute.pairs);
                 ("contexts", float_of_int st.Commute.contexts);
                 ("independent", float_of_int st.Commute.independent);
                 ("dependent", float_of_int st.Commute.dependent);
               ]
             (Printf.sprintf
                "%d/%d contexts judged independent, every one commutes \
                 (%d op pairs, %d states)"
                st.Commute.independent st.Commute.contexts st.Commute.pairs
                space.Reach.n_states)))

let sourceset_verdict (s : Subject.t) space =
  guarded (fun () ->
      match Sourceset.check s space with
      | Error v ->
        Verdict.refuted ~trace:[]
          (Format.asprintf "%a" Sourceset.pp_violation v)
      | Ok (st : Sourceset.stats) ->
        seal space
          (Verdict.proved
             ~metrics:
               [
                 ("pairs", float_of_int st.Sourceset.pairs);
                 ( "equivariance_checks",
                   float_of_int st.Sourceset.equivariance_checks );
                 ( "diamond_checks",
                   float_of_int st.Sourceset.diamond_checks );
               ]
             (Printf.sprintf
                "independence %s-equivariant (%d triples); independent \
                 steps stay applicable (%d diamond edges) on %d states"
                (group s) st.Sourceset.equivariance_checks
                st.Sourceset.diamond_checks st.Sourceset.states)))

let equivariance_verdict (s : Subject.t) space =
  guarded (fun () ->
      match Equivariance.check s space with
      | Error v ->
        Verdict.refuted ~trace:[]
          (Format.asprintf "%a" Equivariance.pp_violation v)
      | Ok (st : Equivariance.stats) ->
        seal space
          (Verdict.proved
             ~metrics:
               [
                 ("group_order", float_of_int st.Equivariance.group_order);
                 ("states", float_of_int st.Equivariance.states);
                 ("checked", float_of_int st.Equivariance.checked);
               ]
             (Printf.sprintf
                "%s group (order %d) is an automorphism group on %d states \
                 (%d triples)"
                (group s) st.Equivariance.group_order
                st.Equivariance.states st.Equivariance.checked)))

let recovery_verdict (s : Subject.t) space =
  guarded (fun () ->
      match Recovery.check s space with
      | Error v ->
        Verdict.refuted ~trace:[]
          (Format.asprintf "%a" Recovery.pp_violation v)
      | Ok (st : Recovery.stats) ->
        seal space
          (Verdict.proved
             ~metrics:
               [
                 ("states", float_of_int st.Recovery.states);
                 ("checked", float_of_int st.Recovery.checked);
                 ("group_order", float_of_int st.Recovery.group_order);
               ]
             (Printf.sprintf
                "persist idempotent, space-closed and %s-equivariant on %d \
                 states (%d checks)%s"
                (group s) st.Recovery.states st.Recovery.checked
                (if st.Recovery.identity then "; all-persistent (identity)"
                 else ""))))

let classification_verdict (s : Subject.t) space =
  guarded (fun () ->
      match Classify.check s space with
      | Error l ->
        Verdict.refuted ~trace:[] (Format.asprintf "%a" Classify.pp_lint l)
      | Ok (inf : Classify.inferred) ->
        let cls =
          match s.Subject.expected with
          | Subject.Deterministic -> "deterministic"
          | Subject.Nondeterministic -> "nondeterministic"
        in
        let traits =
          (if s.Subject.may_hang then [ "hang-prone" ] else [])
          @ if s.Subject.value_oblivious then [ "value-oblivious" ] else []
        in
        seal space
          (Verdict.proved
             ~metrics:
               [
                 ("det_contexts", float_of_int inf.Classify.det_contexts);
                 ( "branching_contexts",
                   float_of_int inf.Classify.branching_contexts );
                 ("hang_contexts", float_of_int inf.Classify.hang_contexts);
                 ("value_pairs", float_of_int inf.Classify.value_pairs);
               ]
             (String.concat ", " (cls :: traits) ^ " as declared")))

(* [stop] is an absolute wall-clock instant; checks not yet started when
   it passes report Limited rather than running.  Checks are not
   interrupted mid-flight — the granularity is one check, matching the
   explorer's "a deadline run is only ever a Limited answer" contract. *)
let analyze_subject_until ?(family = "-") ?stop (s : Subject.t) =
  let mk check verdict = { family; subject = s.Subject.name; check; verdict } in
  let expired () =
    match stop with Some t -> Unix.gettimeofday () > t | None -> false
  in
  let deadline_verdict =
    Verdict.limited "skipped: analysis deadline exceeded"
  in
  if expired () then List.map (fun check -> mk check deadline_verdict) check_names
  else
    match Reach.enumerate s with
    | Error _ as r ->
      let skipped =
        Verdict.limited "skipped: reachable-space enumeration failed"
      in
      mk "reachability" (reach_verdict s r)
      :: List.map
           (fun check -> mk check skipped)
           (List.tl check_names)
    | Ok space as r ->
      let run check f =
        if expired () then mk check deadline_verdict
        else mk check (f s space)
      in
      [
        mk "reachability" (reach_verdict s r);
        run "commutation" commute_verdict;
        run "source-closure" sourceset_verdict;
        run "equivariance" equivariance_verdict;
        run "recovery" recovery_verdict;
        run "classification" classification_verdict;
      ]

let stop_of_deadline deadline =
  Option.map (fun d -> Unix.gettimeofday () +. d) deadline

let analyze_subject ?family ?deadline s =
  analyze_subject_until ?family ?stop:(stop_of_deadline deadline) s

(* Subjects are independent, so they fan out across domains; each
   subject's findings stay in check order and the subject order is
   preserved by [Parallel.map].  The deadline is converted to an absolute
   instant once, so all domains race the same clock. *)
let analyze ?family ?(jobs = 1) ?deadline subjects =
  let stop = stop_of_deadline deadline in
  List.concat
    (Subc_sim.Parallel.map ~jobs (analyze_subject_until ?family ?stop) subjects)

let verdicts findings = List.map (fun f -> f.verdict) findings
let exit_code findings = Verdict.combined_exit (verdicts findings)

let finding_name f = Printf.sprintf "%s/%s/%s" f.family f.subject f.check

let pp_finding ppf f =
  Format.fprintf ppf "@[<v2>%s:@ %a@]" (finding_name f) Verdict.pp_summary
    f.verdict

let to_json f = Verdict.to_json ~name:(finding_name f) f.verdict

let obligations =
  [
    "apply-purity";
    "pairwise-commutation";
    "source-set-closure";
    "symmetry-equivariance";
    "recovery-projection";
    "classification";
  ]

let certify ~family subjects =
  let findings = analyze ~family subjects in
  let bad = List.filter (fun f -> not (Verdict.is_proved f.verdict)) findings in
  if bad = [] then
    Ok (Explore.Certificate.attest ~tool:"subc_analysis" ~subject:family ~obligations)
  else Error bad

(* ------------------------------------------------------------------ *)
(* Protocol lint: the abstract interpreter over the registry's protocol
   exemplars, rendered through the same finding/verdict pipeline as the
   model checks. *)

let registry_entries family =
  match family with
  | None -> Registry.entries ()
  | Some f -> Option.to_list (Registry.find f)

let lint_verdict (r : Absint.report) =
  if r.Absint.r_lints <> [] then
    Verdict.refuted ~trace:[]
      (String.concat "; "
         (List.map (Format.asprintf "%a" Absint.pp_lint) r.Absint.r_lints))
  else
    let metrics =
      [
        ("footprint", float_of_int (List.length r.Absint.r_footprint));
        ("returns", float_of_int (List.length r.Absint.r_returns));
        ("iterations", float_of_int r.Absint.r_iterations);
      ]
    in
    if r.Absint.r_widened then
      Verdict.limited ~metrics
        "abstract interpretation widened — footprint and bound are \
         best-effort, not a certificate"
    else
      Verdict.proved ~metrics
        (Format.asprintf "footprint %d (handle, op) pairs, step bound %a"
           (List.length r.Absint.r_footprint)
           Absint.pp_step_bound r.Absint.r_bound)

(* The gate runs with far larger budgets than {!Absint.analyze}'s
   defaults: alg5's primitive snapshots answer a scan with any reachable
   view vector, so exact branch exploration needs a branch cap on the
   order of the abstract pool, and the resulting tree wants millions of
   nodes of fuel.  Exactness matters here — a widened report is a Limited
   verdict and the CI gate demands clean Proved rows. *)
let lint_protocol ~family ~declared (p : Absint.protocol) =
  let report =
    Absint.analyze ~fuel:6_000_000 ~max_branch:4096 ~declared p
  in
  {
    family;
    subject = p.Absint.p_name;
    check = "lint";
    verdict = lint_verdict report;
  }

let lint ?family () =
  List.concat_map
    (fun (e : Registry.entry) ->
      let declared = Registry.declared_alphabets e.Registry.subjects in
      List.map
        (lint_protocol ~family:e.Registry.family ~declared)
        (e.Registry.protocols ()))
    (registry_entries family)
