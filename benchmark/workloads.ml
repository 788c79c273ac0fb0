(* The five time-to-verdict workloads, their inputs, and their pinned
   answers.  The driver ([main.ml]) and the traced probe ([probe.ml]) both
   build their inputs here, so the two always measure the same thing.

   Inputs come from [--seed]: Algorithm 5 instances propose [base + i]
   with [base = 100 + 1000 * seed] (the symmetry spec uses the same base),
   and the census visits its protocols in a seeded shuffle.  The seed only
   relabels inputs, so every pinned count holds for every seed. *)

open Subc_sim
module Verdict = Subc_check.Verdict
module Ps = Subc_classic.Protocol_search

(* ---------------------------------------------------------------- clocks *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* User plus system time of the whole process, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The process's peak resident set ([VmHWM]), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      find ())

(* ------------------------------------------------------------ statistics *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "median of nothing"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles, as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so the numbers here
   match any script that re-derives them from the same runs. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* --------------------------------------------------------------- inputs *)

type size = Full | Small

(* One Algorithm 5 harness: k processes, process i runs wrn(i, base + i)
   against the 1sWRN_k specification. *)
type alg5 = {
  store : Store.t;
  programs : Value.t Program.t list;
  ops : int -> Op.t;
  spec : Obj_model.t;
  sym : Symmetry.t;
}

let alg5 ~k ~seed =
  let base = 100 + (1000 * seed) in
  let store, t = Subc_core.Alg5.alloc Store.empty ~k () in
  {
    store;
    programs =
      List.init k (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (base + i)));
    ops = (fun i -> Op.make "wrn" [ Value.Int i; Value.Int (base + i) ]);
    spec = Subc_objects.One_shot_wrn.model ~k;
    sym = Subc_core.Alg5.symmetry t ~input_base:base ();
  }

let certify_alg5 () =
  match Subc_analysis.Registry.find "alg5" with
  | None -> failwith "no alg5 family in the analysis registry"
  | Some entry -> (
    match
      Subc_analysis.Analyzer.certify ~family:"alg5"
        entry.Subc_analysis.Registry.subjects
    with
    | Ok certificate -> certificate
    | Error findings ->
      Printf.ksprintf failwith "the analyzer refuses to certify alg5 (%d findings)"
        (List.length findings))

let shuffle ~seed a =
  let rng = Random.State.make [| 0x5eed; seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------------------------------------ workloads *)

type reduction = Unreduced | Certified

type kind =
  | Lin of {
      k : int;
      reduction : reduction;
      jobs : int;
      max_states : int option;
    }
  | Wait_free of { k : int }
  | Census of { k : int; ops : int }

(* What a check must reproduce: the verdict and its deterministic counts,
   as (field, value) pairs. *)
type answer = (string * string) list

type t = {
  name : string;
  kind : size -> kind;
  pinned : answer;  (** the answer at [Full] size, for every seed *)
}

let all =
  [
    (* Unreduced per-transition path (step, fingerprint patch, sequential
       visited table) plus the linearizability checker *)
    {
      name = "lin-k4-f1";
      kind =
        (fun size ->
          Lin
            {
              k = (if size = Full then 4 else 3);
              reduction = Unreduced;
              jobs = 1;
              max_states = None;
            });
      pinned =
        [ ("verdict", "proved"); ("states", "131908");
          ("transitions", "339148"); ("terminals", "16752") ];
    };
    (* Same space as lin-k4-f1 under the certified symmetry and source-set
       reduction, so the pair isolates the reduction layers *)
    {
      name = "lin-k4-f1-full";
      kind =
        (fun size ->
          Lin
            {
              k = (if size = Full then 4 else 3);
              reduction = Certified;
              jobs = 1;
              max_states = None;
            });
      pinned =
        [ ("verdict", "proved"); ("states", "20428");
          ("transitions", "36336"); ("terminals", "493") ];
    };
    (* The same space consumed a second way: every state is visited and
       probed solo *)
    {
      name = "waitfree-k4-f1";
      kind = (fun size -> Wait_free { k = (if size = Full then 4 else 3) });
      pinned =
        [ ("verdict", "proved"); ("solo_bound", "5"); ("configs", "131908") ];
    };
    (* The only multi-domain workload: work stealing, claim table, delta
       frontiers and budget truncation.  The schedule moves a check's time
       by about 10%, so the budget keeps a check near one second and a run
       holds enough checks for its median to damp that *)
    {
      name = "lin-k5-budget-j2";
      kind =
        (fun size ->
          Lin
            {
              k = (if size = Full then 5 else 3);
              reduction = Unreduced;
              jobs = 2;
              max_states = Some (if size = Full then 250_000 else 1_000);
            });
      pinned = [ ("verdict", "limited"); ("states", "250000") ];
    };
    (* Many tiny searches that stop at the first counterexample, so
       per-search set-up and early exit dominate *)
    {
      name = "census-k4-ops2";
      kind =
        (fun size ->
          if size = Full then Census { k = 4; ops = 2 } else Census { k = 3; ops = 1 });
      pinned = [ ("total", "65536"); ("solving", "0") ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---------------------------------------------------------- preparation *)

(* Everything a check needs, built once per run by the timed set-up. *)
type prepared =
  | Lin_check of { inst : alg5; options : Search.options }
  | Wait_free_check of { inst : alg5; options : Search.options }
  | Census_check of { k : int; protocols : Ps.protocol array }

let lin_options ~jobs ~max_states reduction =
  let o =
    Search.default |> Search.with_max_crashes 1 |> Search.with_jobs jobs
    |> Search.with_reduction reduction
  in
  match max_states with Some n -> Search.with_max_states n o | None -> o

(* The set-up the benchmark times as [setup_s]: the instance build, plus
   the analyzer certificate behind the reduced workload, plus the protocol
   enumeration of the census. *)
let prepare ?(size = Full) w ~seed =
  match w.kind size with
  | Lin { k; reduction; jobs; max_states } ->
    let inst = alg5 ~k ~seed in
    let reduction =
      match reduction with
      | Unreduced -> Explore.no_reduction
      | Certified ->
        Explore.certified_reduction ~certificate:(certify_alg5 ()) (Some inst.sym)
    in
    Lin_check { inst; options = lin_options ~jobs ~max_states reduction }
  | Wait_free { k } ->
    Wait_free_check
      { inst = alg5 ~k ~seed; options = Search.(with_max_crashes 1 default) }
  | Census { k; ops } ->
    Census_check { k; protocols = shuffle ~seed (Array.of_list (Ps.enumerate ~k ~ops)) }

(* A check's answer, plus the states it explored (protocols, for the
   census, whose searches report no state counts). *)
type outcome = { answer : answer; work : int }

let explore_stats v =
  match (Verdict.stats v).Verdict.explore with
  | Some s -> s
  | None -> failwith "verdict without exploration stats"

let lin_outcome ~jobs v =
  let s = explore_stats v in
  let counts =
    (* At jobs > 1 a truncated search's transitions and terminals depend
       on the schedule; only the state count is exact. *)
    if jobs > 1 then [ ("states", s.Explore.states) ]
    else
      [ ("states", s.Explore.states); ("transitions", s.Explore.transitions);
        ("terminals", s.Explore.terminals) ]
  in
  {
    answer =
      ("verdict", Verdict.status_string v)
      :: List.map (fun (f, n) -> (f, string_of_int n)) counts;
    work = s.Explore.states;
  }

let metric v name =
  match List.assoc_opt name (Verdict.stats v).Verdict.metrics with
  | Some x -> int_of_float x
  | None -> Printf.ksprintf failwith "verdict lacks metric %s" name

(* How a check's timed parts run: [part f] calls [f] once and returns its
   result.  [main.ml] passes one that calibrates and times each part. *)
type parts = { part : 'a. (unit -> 'a) -> 'a }

let untimed = { part = (fun f -> f ()) }

(* A census pass is timed in this many parts, so a run holds enough
   samples even though a pass takes seconds. *)
let census_parts = 16

let check ?(parts = untimed) = function
  | Lin_check { inst; options } ->
    lin_outcome ~jobs:options.Search.jobs
      (parts.part (fun () ->
           Subc_check.Linearizability.check_harness ~options inst.store
             ~programs:inst.programs ~ops:inst.ops ~spec:inst.spec))
  | Wait_free_check { inst; options } ->
    let v =
      parts.part (fun () ->
          Subc_check.Progress.check_wait_free ~options inst.store ~programs:inst.programs)
    in
    let configs = metric v "configs" in
    {
      answer =
        [ ("verdict", Verdict.status_string v);
          ("solo_bound", string_of_int (metric v "solo_bound"));
          ("configs", string_of_int configs) ];
      work = configs;
    }
  | Census_check { k; protocols } ->
    let n = Array.length protocols in
    let size = (n + census_parts - 1) / census_parts in
    let solving = ref 0 in
    for c = 0 to census_parts - 1 do
      let lo = c * size and hi = min n ((c + 1) * size) in
      if lo < hi then
        solving :=
          !solving
          + parts.part (fun () ->
                let s = ref 0 in
                for i = lo to hi - 1 do
                  if Ps.solves_consensus ~k protocols.(i) then incr s
                done;
                !s)
    done;
    {
      answer = [ ("total", string_of_int n); ("solving", string_of_int !solving) ];
      work = n;
    }

let answer_to_string a =
  String.concat " " (List.map (fun (f, v) -> f ^ "=" ^ v) a)

(* ---------------------------------------------------- end-to-end metrics *)

type direction = Lower | Higher

type metric = { m_name : string; m_unit : string; better : direction }

(* The metrics every workload reports with tracing off.  Their regression
   bounds live in BENCHMARK.json, which [--compare] reads. *)
let end_to_end =
  [
    { m_name = "verdict_s"; m_unit = "s"; better = Lower };
    { m_name = "states_per_s"; m_unit = "1/s"; better = Higher };
    { m_name = "cpu_s"; m_unit = "s"; better = Lower };
    { m_name = "peak_rss_mb"; m_unit = "MB"; better = Lower };
    { m_name = "setup_s"; m_unit = "s"; better = Lower };
  ]

(* The last line both executables print: the result record. *)
let result_line ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit_, value) ->
                  (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
                metrics) );
       ])
