open Subc_sim
module Task = Subc_tasks.Task

let consensus_verdict ?options config ~inputs =
  Subc_obs.Span.time "valence.consensus" @@ fun () ->
  Task_check.verdict ?options config
    ~explain:(Task.explain (Task.conj Task.all_decided Task.consensus) ~inputs)
    ~proved:
      "consensus: agreement + validity on every terminal, and every schedule \
       terminates"

(* The valence: the distinct decided values over every terminal reachable
   from [config], in the order one claim-once search first meets them, so
   a cycle is visited once.  A truncated search fails rather than report
   a partial (possibly univalent-looking) valence. *)
let valence config =
  let decided = ref [] in
  let stats =
    Search.iter_terminals config ~f:(fun final _ ->
        decided := List.rev_append (Config.decisions final) !decided)
  in
  if stats.Explore.limited then
    failwith
      (Format.asprintf
         "Valence: the search stopped (%a) before the valence was complete"
         Explore.pp_limit_reason stats.Explore.limit_reason);
  Task.distinct (List.rev !decided)

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

(* Every successor of [config] with its valence and configuration. *)
let successors_of config =
  List.concat_map
    (fun i ->
      List.map
        (fun (c', event) -> ({ proc = i; event; valence = valence c' }, c'))
        (Step.step config i))
    (Config.running config)

type descent =
  | Critical of critical
  | Disagreement of { config : Config.t; trace : Trace.t }

let find_critical config =
  if List.length (valence config) < 2 then None
  else
    let rec descend config rev_trace =
      if List.length rev_trace > 100_000 then None
      else
        match successors_of config with
        (* A bivalent configuration without a step is a terminal that
           already decided two values. *)
        | [] -> Some (Disagreement { config; trace = List.rev rev_trace })
        | succs -> (
          match
            List.find_opt (fun (s, _) -> List.length s.valence >= 2) succs
          with
          | None ->
            let successors = List.map fst succs in
            Some (Critical { config; trace = List.rev rev_trace; successors })
          (* Follow one bivalent successor. *)
          | Some (s, c') -> descend c' (Trace.Sched s.event :: rev_trace))
    in
    descend config []

(* A trace's steps, each on a line of its own.  A cut goes before each
   step, not after it as in [Trace.pp], so a report ends at its last
   line. *)
let pp_steps ppf trace =
  List.iteri (fun i e -> Format.fprintf ppf "@,%3d. %a" i Trace.pp_event e) trace

let pp_descent ppf = function
  | Critical c ->
    Format.fprintf ppf
      "@[<v>critical configuration after %d steps:%a@,pending steps:@,%a@]"
      (Trace.length c.trace) pp_steps c.trace
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf s ->
           Format.fprintf ppf "  %a  =>  valence %a" Step.pp_event s.event
             Value.pp (Value.Vec s.valence)))
      c.successors
  | Disagreement { config; trace } ->
    Format.fprintf ppf
      "@[<v>agreement violated after %d steps: a terminal decides %a%a@]"
      (Trace.length trace)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " and ")
         Value.pp)
      (List.sort_uniq Value.compare (Config.decisions config))
      pp_steps trace
