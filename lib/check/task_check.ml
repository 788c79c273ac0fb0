open Subc_sim
module Task = Subc_tasks.Task

let search_result ~options ~inputs ~task config =
  Subc_obs.Span.time "task_check.exhaustive" @@ fun () ->
  match
    Search.check_terminals ~options config ~ok:(fun c ->
        Task.satisfies task ~inputs c)
  with
  | Ok stats -> Ok stats
  | Error (c, trace, _stats) ->
    let reason = Option.value ~default:"?" (Task.explain task ~inputs c) in
    Error (reason, trace)

(* Verdict-typed entry point: exhaustive task conformance, classifying a
   truncated search as [Limited] rather than a proof. *)
let check ?(options = Search.default) store ~programs ~inputs ~task =
  let config = Config.make store programs in
  match search_result ~options ~inputs ~task config with
  | Error (reason, trace) -> Verdict.refuted ~trace reason
  | Ok stats when stats.Explore.limited ->
    Verdict.limited ~explore:stats
      "exploration truncated before covering all terminals — no verdict"
  | Ok stats ->
    Verdict.proved ~explore:stats
      (Printf.sprintf "task satisfied on all %d reachable terminals%s%s"
         stats.Explore.terminals
         (if options.Search.max_crashes > 0 then
            Printf.sprintf " (crash budget %d)" options.Search.max_crashes
          else "")
         (if options.Search.max_recoveries > 0 then
            Printf.sprintf " (recovery budget %d)" options.Search.max_recoveries
          else ""))

type sample_stats = {
  runs : int;
  violations : int;
  first_violation : (string * Trace.t) option;
  distinct_counts : int array;
}

let sample ?max_steps store ~programs ~inputs ~task ~seeds =
  let config = Config.make store programs in
  let n = List.length programs in
  let distinct_counts = Array.make (max n 1) 0 in
  let violations = ref 0 in
  let first_violation = ref None in
  List.iter
    (fun seed ->
      let r = Runner.run ?max_steps (Runner.Random seed) config in
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

let sample_crashed ?max_crashes store ~programs ~inputs ~task ~seeds =
  let config = Config.make store programs in
  let n = List.length programs in
  let max_crashes = Option.value max_crashes ~default:(max 0 (n - 1)) in
  let distinct_counts = Array.make (max n 1) 0 in
  let violations = ref 0 in
  let first_violation = ref None in
  List.iter
    (fun seed ->
      let r = Runner.run (Runner.Crash_random { seed; max_crashes }) config in
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
