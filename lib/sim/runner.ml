module Obs = Subc_obs

type strategy =
  | Round_robin
  | Random of int
  | Fixed of int list
  | Priority of int list
  | Only of int list
  | Recover_after of {
      crashes : (int * int) list;
      recoveries : (int * int) list;
      seed : int option;
    }
  | Recover_random of { seed : int; max_crashes : int; max_recoveries : int }

type result = {
  final : Config.t;
  trace : Trace.t;
  steps : int;
  completed : bool;
  starved : int list;
}

type scheduler = {
  mutable pending : int list;  (* for Fixed *)
  mutable last : int;  (* for Round_robin *)
  rng : Random.State.t option;
  kind : strategy;
}

let scheduler_of_strategy = function
  | (Round_robin | Priority _ | Only _) as s ->
    { pending = []; last = -1; rng = None; kind = s }
  | Random seed as s ->
    { pending = []; last = -1; rng = Some (Random.State.make [| seed |]); kind = s }
  | Fixed sched as s -> { pending = sched; last = -1; rng = None; kind = s }
  | Recover_after { seed; _ } as s ->
    {
      pending = [];
      last = -1;
      rng = Option.map (fun seed -> Random.State.make [| seed |]) seed;
      kind = s;
    }
  | Recover_random { seed; _ } as s ->
    { pending = []; last = -1; rng = Some (Random.State.make [| seed |]); kind = s }

let round_robin_next sched runnable =
  let after = List.filter (fun i -> i > sched.last) runnable in
  let next = match after with i :: _ -> i | [] -> List.hd runnable in
  sched.last <- next;
  next

let random_next rng runnable =
  List.nth runnable (Random.State.int rng (List.length runnable))

let next_proc sched runnable =
  match sched.kind with
  | Round_robin -> round_robin_next sched runnable
  | Random _ | Recover_random _ ->
    random_next (Option.get sched.rng) runnable
  | Recover_after _ -> (
    match sched.rng with
    | Some rng -> random_next rng runnable
    | None -> round_robin_next sched runnable)
  | Fixed _ ->
    let rec pop () =
      match sched.pending with
      | [] -> round_robin_next sched runnable
      | i :: rest ->
        sched.pending <- rest;
        if List.mem i runnable then i else pop ()
    in
    pop ()
  | Priority order ->
    let rec first = function
      | [] -> List.hd runnable
      | i :: rest -> if List.mem i runnable then i else first rest
    in
    first order
  | Only _ -> assert false (* handled in the run loop *)

let pick_successor sched successors =
  match (sched.rng, successors) with
  | _, [] -> assert false
  | None, s :: _ -> s
  | Some rng, _ ->
    List.nth successors (Random.State.int rng (List.length successors))

let m_runs = Obs.Metrics.counter "runner.runs"
let m_steps = Obs.Metrics.counter "runner.steps"
let m_crashes = Obs.Metrics.counter "runner.crashes_injected"
let m_recoveries = Obs.Metrics.counter "runner.recoveries_injected"
let m_incomplete = Obs.Metrics.counter "runner.incomplete"

let strategy_name = function
  | Round_robin -> "round_robin"
  | Random _ -> "random"
  | Fixed _ -> "fixed"
  | Priority _ -> "priority"
  | Only _ -> "only"
  | Recover_after _ -> "recover_after"
  | Recover_random _ -> "recover_random"

let observe strategy r =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_steps r.steps;
  Obs.Metrics.add m_crashes (Config.n_crashed r.final);
  Obs.Metrics.add m_recoveries (List.length (Trace.recoveries r.trace));
  if not r.completed then Obs.Metrics.incr m_incomplete;
  if Obs.Sink.get () != Obs.Sink.null then
    Obs.Sink.emit "run"
      [
        ("strategy", Obs.Sink.Str (strategy_name strategy));
        ("steps", Obs.Sink.Int r.steps);
        ("completed", Obs.Sink.Bool r.completed);
        ("crashed", Obs.Sink.Int (Config.n_crashed r.final));
        ("recovered", Obs.Sink.Int (List.length (Trace.recoveries r.trace)));
        ("starved", Obs.Sink.Int (List.length r.starved));
      ];
  r

let run ?(max_steps = 1_000_000) strategy config =
  let sched = scheduler_of_strategy strategy in
  (* Crash plan for [Recover_after]: (step, proc) pairs, applied in step
     order. *)
  let plan =
    ref
      (match strategy with
      | Recover_after { crashes; _ } ->
        List.sort compare crashes
      | _ -> [])
  in
  (* Recovery plan for [Recover_after], same shape. *)
  let rplan =
    ref
      (match strategy with
      | Recover_after { recoveries; _ } -> List.sort compare recoveries
      | _ -> [])
  in
  (* [Recover_random]'s crash budget counts crashes {e injected}, not
     currently-crashed processes — a recovery must not refill it. *)
  let crashes_injected = ref 0 in
  (* Crash every running process the adversary has scheduled to die before
     the current step; crash events enter the trace. *)
  let inject_crashes config rev_trace steps =
    match strategy with
    | Recover_after _ ->
      let due, later = List.partition (fun (s, _) -> s <= steps) !plan in
      plan := later;
      List.fold_left
        (fun (c, rt) (_, p) ->
          if p >= 0 && p < Config.n_procs c && not (Config.is_terminal c)
             && List.mem p (Config.running c)
          then (Config.crash c p, Trace.Crash p :: rt)
          else (c, rt))
        (config, rev_trace) due
    | Recover_random { max_crashes; _ } ->
      let rng = Option.get sched.rng in
      let running = Config.running config in
      if
        running <> []
        && !crashes_injected < max_crashes
        && Random.State.int rng 4 = 0
      then begin
        let victim = random_next rng running in
        incr crashes_injected;
        (Config.crash config victim, Trace.Crash victim :: rev_trace)
      end
      else (config, rev_trace)
    | _ -> (config, rev_trace)
  in
  (* Recover crashed processes the adversary has scheduled to revive.
     With [~drain:true] (the run has no runnable process left) the whole
     remaining plan — or, for [Recover_random], the remaining budget — is
     applied, so planned recoveries are not silently lost when every
     process finishes or crashes before their step number comes up. *)
  let inject_recoveries ~drain config rev_trace steps =
    match strategy with
    | Recover_after _ ->
      let due, later =
        List.partition (fun (s, _) -> drain || s <= steps) !rplan
      in
      rplan := later;
      List.fold_left
        (fun (c, rt) (_, p) ->
          if p >= 0 && p < Config.n_procs c && List.mem p (Config.crashed c)
          then (Config.recover c p, Trace.Recover p :: rt)
          else (c, rt))
        (config, rev_trace) due
    | Recover_random { max_recoveries; _ } ->
      let rng = Option.get sched.rng in
      let crashed = Config.crashed config in
      if
        crashed <> []
        && Config.n_recoveries config < max_recoveries
        && (drain || Random.State.int rng 4 = 0)
      then
        let p = random_next rng crashed in
        (Config.recover config p, Trace.Recover p :: rev_trace)
      else (config, rev_trace)
    | _ -> (config, rev_trace)
  in
  let rec loop config rev_trace steps =
    if steps >= max_steps then
      {
        final = config;
        trace = List.rev rev_trace;
        steps;
        completed = false;
        starved = [];
      }
    else
      let config, rev_trace = inject_crashes config rev_trace steps in
      let config, rev_trace =
        inject_recoveries ~drain:false config rev_trace steps
      in
      let all = Config.running config in
      match
        (match strategy with
        | Only survivors -> List.filter (fun i -> List.mem i survivors) all
        | _ -> all)
      with
      | [] when all = [] ->
        (* Nobody can step.  A recovery adversary with plan or budget
           left may still revive a crashed process; otherwise the run is
           over. *)
        let config', rev_trace' =
          inject_recoveries ~drain:true config rev_trace steps
        in
        if Config.running config' <> [] then loop config' rev_trace' steps
        else
          {
            final = config';
            trace = List.rev rev_trace';
            steps;
            completed = Config.is_terminal config';
            starved = [];
          }
      | [] ->
        (* With [Only], runnable non-survivors are starved, not finished:
           the caller must be able to tell "terminated" from "everyone left
           is filtered out". *)
        {
          final = config;
          trace = List.rev rev_trace;
          steps;
          completed = Config.is_terminal config;
          starved = all;
        }
      | runnable ->
        let i =
          match strategy with
          | Only _ -> round_robin_next sched runnable
          | _ -> next_proc sched runnable
        in
        let config, event = pick_successor sched (Step.step config i) in
        loop config (Trace.Sched event :: rev_trace) (steps + 1)
  in
  observe strategy (loop config [] 0)
