open Subc_sim
module Task = Subc_tasks.Task

let consensus_ok ~inputs config =
  let os = Task.outcomes ~inputs config in
  match Task.all_decided.Task.check os with
  | Error e -> Error e
  | Ok () -> Task.consensus.Task.check os

(* Verdict-typed consensus check.  Terminal checking
   parallelizes ([options.jobs]); the cycle search stays sequential —
   back-edge detection needs the DFS stack discipline (see [Parallel]). *)
let consensus_verdict ?(options = Search.default) config ~inputs =
  Subc_obs.Span.time "valence.consensus" @@ fun () ->
  let check_terminals_result =
    Search.check_terminals ~options config ~ok:(fun c ->
        Result.is_ok (consensus_ok ~inputs c))
  in
  match check_terminals_result with
  | Error (c, trace, stats) ->
    let reason =
      match consensus_ok ~inputs c with Error e -> e | Ok () -> assert false
    in
    Verdict.refuted ~explore:stats ~trace reason
  | Ok stats when stats.Explore.limited ->
    Verdict.limited ~explore:stats
      "state limit reached while checking terminals"
  | Ok stats -> (
    match Search.find_cycle ~options config with
    | Some trace, cycle_stats ->
      Verdict.refuted ~explore:cycle_stats ~trace
        "infinite schedule (protocol not wait-free)"
    | None, cycle_stats ->
      if cycle_stats.Explore.limited then
        Verdict.limited ~explore:cycle_stats
          "state limit reached while searching cycles"
      else
        Verdict.proved ~explore:stats
          "consensus: agreement + validity on every terminal, and every \
           schedule terminates")

(* Memoized valence computation: the union over all reachable terminals of
   the decided values.  The memo is keyed by homomorphic fingerprint: an
   entry point folds its configuration once ({!Fingerprint.hom_of_config})
   and the recursion patches each successor's from its parent's
   ({!Explore.patched_fingerprint}). *)
type valence_ctx = {
  memo : Value.t list Fingerprint.Tbl.t;
  mutable budget : int;
}

(* Every successor of process [i]'s step from [config] (fingerprint [fp]),
   with its event and patched fingerprint. *)
let step_successors config fp i =
  List.map
    (fun (c', event, slots) ->
      (c', event, Explore.patched_fingerprint config fp slots c'))
    (Step.step_slots config i)

let rec valence_rec ctx config fp =
  match Fingerprint.Tbl.find_opt ctx.memo fp with
  | Some vs -> vs
  | None ->
    ctx.budget <- ctx.budget - 1;
    if ctx.budget < 0 then []
    else begin
      let vs =
        match Config.running config with
        | [] -> Task.distinct (Config.decisions config)
        | runnable ->
          List.concat_map
            (fun i ->
              List.concat_map
                (fun (c', _, fp') -> valence_rec ctx c' fp')
                (step_successors config fp i))
            runnable
          |> Task.distinct
      in
      Fingerprint.Tbl.replace ctx.memo fp vs;
      vs
    end

let make_ctx max_states =
  {
    memo = Fingerprint.Tbl.create 1024;
    budget = Option.value max_states ~default:5_000_000;
  }

let valence ?max_states config =
  valence_rec (make_ctx max_states) config (Fingerprint.hom_of_config config)

type successor_valence = {
  proc : int;
  event : Step.event;
  valence : Value.t list;
}

type critical = {
  config : Config.t;
  trace : Trace.t;
  successors : successor_valence list;
}

(* Every successor of [config] (fingerprint [fp]) with its valence,
   configuration and fingerprint. *)
let successors_of ctx config fp =
  List.concat_map
    (fun i ->
      List.map
        (fun (c', event, fp') ->
          ({ proc = i; event; valence = valence_rec ctx c' fp' }, c', fp'))
        (step_successors config fp i))
    (Config.running config)

let find_critical ?max_states config =
  let ctx = make_ctx max_states in
  let fp = Fingerprint.hom_of_config config in
  if List.length (valence_rec ctx config fp) < 2 then None
  else
    let rec descend config fp rev_trace =
      if List.length rev_trace > 100_000 then None
      else
        let succs = successors_of ctx config fp in
        match
          List.find_opt (fun (s, _, _) -> List.length s.valence >= 2) succs
        with
        | None ->
          Some
            {
              config;
              trace = List.rev rev_trace;
              successors = List.map (fun (s, _, _) -> s) succs;
            }
        (* Follow one bivalent successor. *)
        | Some (s, c', fp') -> descend c' fp' (Trace.Sched s.event :: rev_trace)
    in
    descend config fp []

let pp_critical ppf c =
  Format.fprintf ppf
    "@[<v>critical configuration after %d steps:@,%a@,pending steps:@,%a@]"
    (Trace.length c.trace) Trace.pp c.trace
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf s ->
         Format.fprintf ppf "  %a  =>  valence %a" Step.pp_event s.event
           Value.pp (Value.Vec s.valence)))
    c.successors
