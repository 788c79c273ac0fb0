(* One record for every search knob, and the one front door that runs
   every search through {!Parallel.run}. *)

exception Stop = Explore.Stop

type options = {
  max_states : int;
  max_crashes : int;
  max_recoveries : int;
  deadline : float option;
  reduction : Explore.reduction;
  paranoid : bool;
  jobs : int;
}

let default =
  {
    max_states = 5_000_000;
    max_crashes = 0;
    max_recoveries = 0;
    deadline = None;
    reduction = Explore.no_reduction;
    paranoid = false;
    jobs = 1;
  }

let with_max_states n o = { o with max_states = n }
let with_max_crashes n o = { o with max_crashes = n }
let with_max_recoveries n o = { o with max_recoveries = n }
let with_deadline secs o = { o with deadline = Some secs }
let with_reduction r o = { o with reduction = r }

let with_paranoid b o = { o with paranoid = b }
let with_jobs n o = { o with jobs = max 1 n }

let no_terminal _ _ _ = ()
let no_visit _ _ _ = ()

(* Every search, at any [jobs]: the one engine. *)
let search ?seq_threshold ~find_cycle ~on_terminal ~on_visit label o config =
  Parallel.run ~max_states:o.max_states ~max_crashes:o.max_crashes
    ~max_recoveries:o.max_recoveries ?deadline:o.deadline
    ~reduction:o.reduction ~paranoid:o.paranoid ?seq_threshold ~find_cycle
    ~jobs:o.jobs ~on_terminal ~on_visit label config

let run ?seq_threshold ~on_terminal ~on_visit label o config =
  fst
    (search ?seq_threshold ~find_cycle:false ~on_terminal ~on_visit label o
       config)

(* Source sets cover terminals only; reachability and cycle hunting need
   every state and every back-edge. *)
let without_source_sets o =
  { o with reduction = { o.reduction with Explore.source_sets = false } }

(* Domain [id] folds into [slots.(id)] alone, so no two domains write
   one slot; the join orders every write before the merge. *)
let fold_terminals ?(options = default) ?seq_threshold config ~init ~f ~merge =
  let slots = Array.make (max 1 options.jobs) None in
  let on_terminal id c trace =
    let acc = match slots.(id) with Some acc -> acc | None -> init () in
    slots.(id) <- Some (f acc c trace)
  in
  let stats =
    run ?seq_threshold ~on_terminal ~on_visit:no_visit "fold_terminals" options
      config
  in
  let acc =
    Array.fold_left
      (fun acc slot ->
        match (acc, slot) with
        | _, None -> acc
        | None, slot -> slot
        | Some a, Some b -> Some (merge a b))
      None slots
  in
  ((match acc with Some acc -> acc | None -> init ()), stats)

(* [f] keeps its serialized contract: a lock of its own once more than
   one domain can call it. *)
let iter_terminals ?(options = default) ?seq_threshold config ~f =
  let on_terminal =
    if options.jobs <= 1 then fun _ c trace -> f c trace
    else
      let lock = Mutex.create () in
      fun _ c trace -> Mutex.protect lock (fun () -> f c trace)
  in
  run ?seq_threshold ~on_terminal ~on_visit:no_visit "iter_terminals" options
    config

let reachable ~on_visit options config =
  run ~on_terminal:no_terminal ~on_visit "iter_reachable"
    (without_source_sets options) config

let iter_reachable ?(options = default) config ~f =
  reachable ~on_visit:(fun _ c trace -> f c trace) options config

let iter_reachable_by_domain ?(options = default) config ~f =
  reachable ~on_visit:f options config

let check_terminals ?(options = default) config ~ok =
  (* [ok] runs on every domain at once; the first counterexample to land
     in [found] wins and stays. *)
  let found = Atomic.make None in
  let on_terminal _ c trace =
    if Option.is_none (Atomic.get found) && not (ok c) then begin
      ignore (Atomic.compare_and_set found None (Some (c, trace)));
      raise Stop
    end
  in
  let stats =
    run ~on_terminal ~on_visit:no_visit "check_terminals" options config
  in
  match Atomic.get found with
  | None -> Ok stats
  | Some (c, trace) -> Error (c, trace, stats)

(* Cycle hunting needs one DFS stack, so it runs at one domain whatever
   [jobs] says; the options record still supplies every other knob. *)
let find_cycle ?(options = default) config =
  let stats, witness =
    search ~find_cycle:true ~on_terminal:no_terminal ~on_visit:no_visit
      "find_cycle" (without_source_sets options) config
  in
  (witness, stats)
