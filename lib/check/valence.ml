open Subc_sim
module Task = Subc_tasks.Task

let consensus_verdict ?options config ~inputs =
  Subc_obs.Span.time "valence.consensus" @@ fun () ->
  Task_check.verdict ?options config
    ~explain:(Task.explain (Task.conj Task.all_decided Task.consensus) ~inputs)
    ~proved:
      "consensus: agreement + validity on every terminal, and every schedule \
       terminates"

(* Memoized valence computation: the union over all reachable terminals of
   the decided values.  The memo is keyed by homomorphic fingerprint: an
   entry point folds its configuration once ({!Fingerprint.hom_of_config})
   and the recursion patches each successor's from its parent's
   ({!Explore.patched_fingerprint}).  The memo holds at most [budget]
   configurations; past that the computation fails rather than report a
   partial (possibly univalent-looking) valence. *)
type valence_ctx = {
  memo : Value.t list Fingerprint.Tbl.t;
  mutable budget : int;
}

let budget = 5_000_000

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
    if ctx.budget < 0 then
      failwith
        (Printf.sprintf
           "Valence: the %d-configuration budget ran out before the valence \
            was complete"
           budget);
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

let make_ctx () = { memo = Fingerprint.Tbl.create 1024; budget }

let valence config =
  valence_rec (make_ctx ()) config (Fingerprint.hom_of_config config)

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

let find_critical config =
  let ctx = make_ctx () in
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
