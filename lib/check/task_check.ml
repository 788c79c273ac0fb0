open Subc_sim
module Task = Subc_tasks.Task

let truncated stats phase =
  Verdict.limited ~explore:stats
    (Format.asprintf "exploration truncated (%a) while %s — no verdict"
       Explore.pp_limit_reason stats.Explore.limit_reason phase)

let budgets options =
  (if options.Search.max_crashes > 0 then
     Printf.sprintf " (crash budget %d)" options.Search.max_crashes
   else "")
  ^
  if options.Search.max_recoveries > 0 then
    Printf.sprintf " (recovery budget %d)" options.Search.max_recoveries
  else ""

(* The one checking pipeline.  Terminal phase: every reachable terminal
   must pass [explain]; a violation is refuted with the schedule that
   reaches it.  Termination phase (when [terminates]): no schedule runs
   forever; a cycle is refuted with its lasso.  Either phase truncated is
   [Limited]. *)
let pipeline ~options ~terminates config ~explain ~proved =
  let terminal_ok c = Option.is_none (explain c) in
  match Search.check_terminals ~options config ~ok:terminal_ok with
  | Error (c, trace, stats) ->
    Verdict.refuted ~explore:stats ~trace
      (Option.value ~default:"?" (explain c))
  | Ok stats when stats.Explore.limited ->
    truncated stats "checking terminals"
  | Ok stats when not terminates ->
    Verdict.proved ~explore:stats (proved stats)
  | Ok stats -> (
    match Search.find_cycle ~options config with
    | Some lasso, cycle_stats ->
      Verdict.refuted ~explore:cycle_stats ~trace:lasso
        (Printf.sprintf "infinite schedule%s: some execution never terminates"
           (budgets options))
    | None, cycle_stats when cycle_stats.Explore.limited ->
      truncated cycle_stats "searching cycles"
    | None, _ -> Verdict.proved ~explore:stats (proved stats))

let verdict ?(options = Search.default) config ~explain ~proved =
  pipeline ~options ~terminates:true config ~explain ~proved:(fun _ -> proved)

let check ?(options = Search.default) store ~programs ~inputs ~task =
  Subc_obs.Span.time "task_check.exhaustive" @@ fun () ->
  pipeline ~options ~terminates:false
    (Config.make store programs)
    ~explain:(Task.explain task ~inputs)
    ~proved:(fun stats ->
      Printf.sprintf "task satisfied on all %d reachable terminals%s"
        stats.Explore.terminals (budgets options))

type sample_stats = {
  runs : int;
  violations : int;
  first_violation : (string * Trace.t) option;
  distinct_counts : int array;
}

let sample ?max_steps ?max_crashes store ~programs ~inputs ~task ~seeds =
  let config = Config.make store programs in
  let n = List.length programs in
  let adversary seed =
    match max_crashes with
    | None -> Runner.Random seed
    | Some max_crashes ->
      Runner.Recover_random { seed; max_crashes; max_recoveries = 0 }
  in
  let distinct_counts = Array.make (max n 1) 0 in
  let violations = ref 0 in
  let first_violation = ref None in
  List.iter
    (fun seed ->
      let r = Runner.run ?max_steps (adversary seed) config in
      let d =
        List.length (Task.distinct (Config.decisions r.Runner.final))
      in
      if d > 0 && d <= n then
        distinct_counts.(d - 1) <- distinct_counts.(d - 1) + 1;
      match Task.explain task ~inputs r.Runner.final with
      | None -> ()
      | Some reason ->
        incr violations;
        if !first_violation = None then
          first_violation := Some (reason, r.Runner.trace))
    seeds;
  {
    runs = List.length seeds;
    violations = !violations;
    first_violation = !first_violation;
    distinct_counts;
  }

let pp_sample_stats ppf s =
  Format.fprintf ppf "runs=%d violations=%d distinct-decisions=[%s]" s.runs
    s.violations
    (String.concat "; "
       (Array.to_list
          (Array.mapi (fun i c -> Printf.sprintf "%d:%d" (i + 1) c)
             s.distinct_counts)))
