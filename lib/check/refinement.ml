open Subc_sim

type harness = { store : Store.t; programs : Value.t Program.t list }

(* Every reachable terminal outcome vector of [harness], with one witness
   schedule per distinct outcome, or the stats of a truncated search.
   Symmetry reduction is deliberately stripped: outcome vectors are
   compared literally between the two harnesses, and quotienting each
   side independently could pick different orbit representatives.
   Terminal callbacks are serialized under the engine's callback lock
   once helpers run, so the table needs no further protection. *)
let outcomes ~options harness =
  let witnesses = Hashtbl.create 64 in
  let stats =
    Search.iter_terminals
      ~options:(Search.with_reduction Explore.no_reduction options)
      (Config.make harness.store harness.programs)
      ~f:(fun final trace ->
        let o = Config.decisions final in
        if not (Hashtbl.mem witnesses o) then Hashtbl.add witnesses o trace)
  in
  if stats.Explore.limited then Error stats else Ok witnesses

(* Enumerate each harness once, then judge the two outcome tables. *)
let compare_outcomes ~options ~impl ~spec judge =
  match (outcomes ~options impl, outcomes ~options spec) with
  | Error stats, _ | _, Error stats ->
    Verdict.limited ~explore:stats
      (Format.asprintf
         "exploration truncated (%a) before covering every outcome — no \
          verdict"
         Explore.pp_limit_reason stats.Explore.limit_reason)
  | Ok impl, Ok spec -> judge impl spec

(* An outcome of [a] that [b] lacks, with its witness schedule in [a]'s
   harness. *)
let missing a b =
  Hashtbl.fold
    (fun o trace found ->
      if Option.is_some found || Hashtbl.mem b o then found
      else Some (o, trace))
    a None

let refuted ~in_ ~not_in (outcome, trace) =
  Verdict.refuted ~trace
    (Format.asprintf "outcome %a reachable in the %s but not in the %s"
       Value.pp (Value.Vec outcome) in_ not_in)

let check_refines ?(options = Search.default) () ~impl ~spec =
  Subc_obs.Span.time "refinement.refines" @@ fun () ->
  compare_outcomes ~options ~impl ~spec @@ fun impl spec ->
  match missing impl spec with
  | Some w -> refuted ~in_:"implementation" ~not_in:"specification" w
  | None ->
    let n_impl = Hashtbl.length impl and n_spec = Hashtbl.length spec in
    Verdict.proved
      ~metrics:
        [
          ("impl_outcomes", float_of_int n_impl);
          ("spec_outcomes", float_of_int n_spec);
        ]
      (Printf.sprintf
         "every implementation outcome (%d) is a specification outcome (%d)"
         n_impl n_spec)

let check_equivalent ?(options = Search.default) () ~impl ~spec =
  Subc_obs.Span.time "refinement.equivalent" @@ fun () ->
  compare_outcomes ~options ~impl ~spec @@ fun impl spec ->
  match (missing impl spec, missing spec impl) with
  | Some w, _ -> refuted ~in_:"implementation" ~not_in:"specification" w
  | None, Some w -> refuted ~in_:"specification" ~not_in:"implementation" w
  | None, None ->
    let n = Hashtbl.length impl in
    Verdict.proved
      ~metrics:[ ("outcomes", float_of_int n) ]
      (Printf.sprintf "identical outcome sets (%d outcomes)" n)
