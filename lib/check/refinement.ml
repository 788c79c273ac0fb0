open Subc_sim

type harness = { store : Store.t; programs : Value.t Program.t list }
type failure = { outcome : Value.t list; trace : Trace.t }

(* Symmetry reduction is deliberately stripped: outcome vectors are
   compared literally between the two harnesses, and quotienting each
   side independently could pick different orbit representatives.
   Terminal callbacks are serialized under the engine's callback lock
   once helpers run, so the accumulator needs no further protection. *)
let sanitize options =
  Search.with_reduction Explore.no_reduction options

let outcomes_with_traces ~options harness =
  let config = Config.make harness.store harness.programs in
  let acc = ref [] in
  let stats =
    Search.iter_terminals ~options:(sanitize options) config
      ~f:(fun final trace -> acc := (Config.decisions final, trace) :: !acc)
  in
  if stats.Explore.limited then failwith "Refinement: state limit reached";
  !acc

let options_of_max_states max_states =
  match max_states with
  | None -> Search.default
  | Some n -> Search.with_max_states n Search.default

let outcomes ?max_states harness =
  List.sort_uniq compare
    (List.map fst
       (outcomes_with_traces ~options:(options_of_max_states max_states)
          harness))

let refines_search ~options ~impl ~spec =
  let spec_outcomes =
    List.sort_uniq compare
      (List.map fst (outcomes_with_traces ~options spec))
  in
  let impl_outcomes = outcomes_with_traces ~options impl in
  match
    List.find_opt
      (fun (o, _) -> not (List.mem o spec_outcomes))
      impl_outcomes
  with
  | Some (outcome, trace) -> Error { outcome; trace }
  | None ->
    Ok
      ( List.length (List.sort_uniq compare (List.map fst impl_outcomes)),
        List.length spec_outcomes )

let refines ?max_states () ~impl ~spec =
  refines_search ~options:(options_of_max_states max_states) ~impl ~spec

let equivalent_search ~options ~impl ~spec =
  match refines_search ~options ~impl ~spec with
  | Error _ as e -> e
  | Ok (n_impl, n_spec) -> (
    match refines_search ~options ~impl:spec ~spec:impl with
    | Error _ as e -> e
    | Ok _ ->
      if n_impl = n_spec then Ok n_impl
      else
        (* Containment both ways with equal cardinality is equality; unequal
           cardinalities here would be contradictory. *)
        Ok n_impl)

let equivalent ?max_states () ~impl ~spec =
  equivalent_search ~options:(options_of_max_states max_states) ~impl ~spec

(* Verdict-typed entry points. *)
let check_refines ?(options = Search.default) () ~impl ~spec =
  Subc_obs.Span.time "refinement.refines" @@ fun () ->
  match refines_search ~options ~impl ~spec with
  | Ok (n_impl, n_spec) ->
    Verdict.proved
      ~metrics:
        [
          ("impl_outcomes", float_of_int n_impl);
          ("spec_outcomes", float_of_int n_spec);
        ]
      (Printf.sprintf
         "every implementation outcome (%d) is a specification outcome (%d)"
         n_impl n_spec)
  | Error { outcome; trace } ->
    Verdict.refuted ~trace
      (Format.asprintf
         "outcome %a reachable in the implementation but not in the \
          specification"
         Value.pp (Value.Vec outcome))
  | exception Failure msg -> Verdict.limited msg

let check_equivalent ?(options = Search.default) () ~impl ~spec =
  Subc_obs.Span.time "refinement.equivalent" @@ fun () ->
  match equivalent_search ~options ~impl ~spec with
  | Ok n ->
    Verdict.proved
      ~metrics:[ ("outcomes", float_of_int n) ]
      (Printf.sprintf "identical outcome sets (%d outcomes)" n)
  | Error { outcome; trace } ->
    Verdict.refuted ~trace
      (Format.asprintf "outcome %a reachable on one side only" Value.pp
         (Value.Vec outcome))
  | exception Failure msg -> Verdict.limited msg
