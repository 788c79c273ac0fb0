(* One record for every search knob, replacing the nine-optional-arg
   sprawl that every explorer and checker entry point used to duplicate.
   The engines ({!Explore}, {!Parallel}) keep their low-level labelled
   interfaces; this module is the front door that dispatches between
   them on [jobs] and [visited]. *)

type options = {
  max_states : int;
  max_depth : int;
  max_crashes : int;
  max_recoveries : int;
  deadline : float option;
  expected_states : int option;
  reduction : Explore.reduction;
  paranoid : bool;
  fp : Explore.fp_mode option;
  jobs : int;
  visited : Parallel.visited option;
}

let default =
  {
    max_states = 5_000_000;
    max_depth = 10_000;
    max_crashes = 0;
    max_recoveries = 0;
    deadline = None;
    expected_states = None;
    reduction = Explore.no_reduction;
    paranoid = false;
    fp = None;
    jobs = 1;
    visited = None;
  }

let with_max_states n o = { o with max_states = n }
let with_max_depth n o = { o with max_depth = n }
let with_max_crashes n o = { o with max_crashes = n }
let with_max_recoveries n o = { o with max_recoveries = n }
let with_deadline secs o = { o with deadline = Some secs }
let with_expected_states n o = { o with expected_states = Some n }
let with_reduction r o = { o with reduction = r }

let with_paranoid b o = { o with paranoid = b }
let with_fp m o = { o with fp = Some m }
let with_jobs n o = { o with jobs = max 1 n }
let with_visited v o = { o with visited = Some v }

let pp ppf o =
  Format.fprintf ppf
    "max-states=%d max-depth=%d crashes<=%d recoveries<=%d%s%s jobs=%d \
     paranoid=%b %a"
    o.max_states o.max_depth o.max_crashes o.max_recoveries
    (match o.deadline with
    | None -> ""
    | Some s -> Printf.sprintf " deadline=%.3gs" s)
    (match o.visited with
    | None -> ""
    | Some v -> Format.asprintf " visited=%a" Parallel.pp_visited v)
    o.jobs o.paranoid Explore.pp_reduction o.reduction;
  match o.fp with
  | None -> ()
  | Some m -> Format.fprintf ppf " fp=%a" Explore.pp_fp_mode m

(* The out-of-core table lives only in the parallel engine, so a spill
   search runs there even at [jobs = 1]. *)
let parallel o =
  o.jobs > 1
  ||
  match o.visited with
  | Some (Parallel.Spill _) -> true
  | None | Some (Parallel.Sharded | Parallel.Lockfree | Parallel.Compressed)
    ->
    false

let iter_terminals ?(options = default) config ~f =
  let o = options in
  if parallel o then
    Parallel.iter_terminals ?visited:o.visited ~max_states:o.max_states
      ~max_depth:o.max_depth ~max_crashes:o.max_crashes
      ~max_recoveries:o.max_recoveries ?deadline:o.deadline
      ?expected_states:o.expected_states ~reduction:o.reduction
      ~paranoid:o.paranoid ?fp:o.fp ~jobs:o.jobs config ~f
  else
    Explore.iter_terminals ~max_states:o.max_states ~max_depth:o.max_depth
      ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
      ?deadline:o.deadline ?expected_states:o.expected_states
      ~reduction:o.reduction ~paranoid:o.paranoid ?fp:o.fp config ~f

let iter_reachable ?(options = default) config ~f =
  let o = options in
  if parallel o then
    Parallel.iter_reachable ?visited:o.visited ~max_states:o.max_states
      ~max_depth:o.max_depth ~max_crashes:o.max_crashes
      ~max_recoveries:o.max_recoveries ?deadline:o.deadline
      ?expected_states:o.expected_states ~reduction:o.reduction
      ~paranoid:o.paranoid ?fp:o.fp ~jobs:o.jobs config ~f
  else
    Explore.iter_reachable ~max_states:o.max_states ~max_depth:o.max_depth
      ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
      ?deadline:o.deadline ?expected_states:o.expected_states
      ~reduction:o.reduction ~paranoid:o.paranoid ?fp:o.fp config ~f

let find_terminal ?(options = default) config ~violates =
  let o = options in
  if parallel o then
    Parallel.find_terminal ?visited:o.visited ~max_states:o.max_states
      ~max_depth:o.max_depth ~max_crashes:o.max_crashes
      ~max_recoveries:o.max_recoveries ?deadline:o.deadline
      ?expected_states:o.expected_states ~reduction:o.reduction
      ~paranoid:o.paranoid ?fp:o.fp ~jobs:o.jobs config ~violates
  else
    Explore.find_terminal ~max_states:o.max_states ~max_depth:o.max_depth
      ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
      ?deadline:o.deadline ?expected_states:o.expected_states
      ~reduction:o.reduction ~paranoid:o.paranoid ?fp:o.fp config ~violates

let check_terminals ?(options = default) config ~ok =
  let o = options in
  if parallel o then
    Parallel.check_terminals ?visited:o.visited ~max_states:o.max_states
      ~max_depth:o.max_depth ~max_crashes:o.max_crashes
      ~max_recoveries:o.max_recoveries ?deadline:o.deadline
      ?expected_states:o.expected_states ~reduction:o.reduction
      ~paranoid:o.paranoid ?fp:o.fp ~jobs:o.jobs config ~ok
  else
    Explore.check_terminals ~max_states:o.max_states ~max_depth:o.max_depth
      ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
      ?deadline:o.deadline ?expected_states:o.expected_states
      ~reduction:o.reduction ~paranoid:o.paranoid ?fp:o.fp config ~ok

(* Cycle hunting needs the sequential DFS stack discipline whatever
   [jobs] says; the options record still supplies every other knob. *)
let find_cycle ?(options = default) config =
  let o = options in
  Explore.find_cycle ~max_states:o.max_states ~max_depth:o.max_depth
    ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
    ?deadline:o.deadline ?expected_states:o.expected_states
    ~reduction:o.reduction ~paranoid:o.paranoid ?fp:o.fp config
