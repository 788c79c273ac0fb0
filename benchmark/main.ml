(* Time-to-verdict benchmark driver.

     main.exe --workload W --seed N [--seconds S]
       one run of one workload in this process; the last stdout line is
       the result record.
     main.exe [--seed N] [--runs R] [--sets K] [--seconds S] [--out DIR]
       every workload, R runs per set and K sets, each run in a fresh
       child process; run i of set j uses seed N + j*R + i.  Writes
       DIR/results.json when --out is given.
     main.exe --compare A.json[:SET] B.json[:SET]
       compare two result files (or one set of each) metric by metric
       against the bounds in BENCHMARK.json, read from the working
       directory.

   The load is a closed loop with one caller: each run sets up, makes one
   untimed warm-up check, then times checks back to back for S seconds,
   with a heap compaction (untimed) before each, since every command-line
   check starts from a fresh heap.  See README.md. *)

open Bench_workloads
open Workloads

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* ------------------------------------------------------------ host speed *)

(* The shared virtual hosts this benchmark runs on change speed by 10-30%
   over minutes, too slowly for any run to average out.  So a fixed kernel
   of the benchmark's own (random read-modify-writes over a 32 MB array; it
   calls nothing in the library and allocates nothing) runs between the
   timed parts of checks, and each part's times are scaled by
   [reference_s] over the kernel's time around it.  Timing metrics are
   therefore seconds at the reference host's speed: a change to the
   library moves them, the host's drift mostly does not.  Raw times are
   printed beside them. *)
let kernel_words = 1 lsl 22
let kernel_steps = 1_500_000

(* The kernel's median time on the reference host (README.md). *)
let reference_s = 0.0219

let kernel = lazy (Array.make kernel_words 0)

let calibrate () =
  let a = Lazy.force kernel in
  let x = ref 1 in
  let t0 = now_ns () in
  for _ = 1 to kernel_steps do
    x := (!x * 0x2545F4914F6CDD1D) + 1442695040888963407;
    let i = (!x lsr 30) land (kernel_words - 1) in
    a.(i) <- a.(i) + 1
  done;
  seconds_since t0

(* ------------------------------------------------------- one workload run *)

(* Set-up is timed several times and reported as a median.  Each sample
   starts from a compacted heap, is scaled by its own kernel time like a
   check's part, and times a batch of at least [setup_batch_s], so a
   set-up of a few microseconds averages out timer and allocator jitter.
   At least [setup_min_samples] samples are taken, more while the run has
   spent under [setup_budget_s] on them.  The samples follow the checks,
   so the heap the checks start from does not depend on how many a run
   had time for. *)
let setup_batch_s = 0.002
let setup_min_samples = 7
let setup_max_samples = 100
let setup_budget_s = 0.5

let setup_samples w ~seed ~first_s =
  let started = now_ns () in
  let batch = max 1 (int_of_float (Float.ceil (setup_batch_s /. first_s))) in
  let rec go samples times =
    Gc.compact ();
    let cal = calibrate () in
    let t0 = now_ns () in
    for _ = 1 to batch do
      ignore (prepare w ~seed)
    done;
    let time = seconds_since t0 /. float_of_int batch *. reference_s /. cal in
    let times = time :: times in
    if
      samples + 1 < setup_min_samples
      || (samples + 1 < setup_max_samples && seconds_since started < setup_budget_s)
    then go (samples + 1) times
    else times
  in
  go 0 []

(* One run: set up, one untimed warm-up check, then timed checks back to
   back until the next one would likely end after [seconds].  Every check
   is verified against the pinned answer. *)
let run_one w ~seed ~seconds =
  let t0 = now_ns () in
  let prepared = prepare w ~seed in
  let first_s = seconds_since t0 in
  let attempted = ref 0 and failed = ref 0 in
  let verify i (o : outcome) =
    incr attempted;
    if o.answer <> w.pinned then begin
      incr failed;
      Printf.eprintf "%s check %d: got %s, pinned %s\n%!" w.name i
        (answer_to_string o.answer) (answer_to_string w.pinned)
    end
  in
  (* The peak a command-line check reaches: a fresh process, one set-up,
     one check, and not yet the kernel's array. *)
  Gc.compact ();
  verify 0 (check prepared);
  let peak = peak_rss_mb () in
  (* Each part is scaled by the mean of the kernels on either side of it;
     the last kernel of a check is the first of the next. *)
  let cals = ref [ calibrate () ] and raw = ref 0. and wall = ref 0. and cpu = ref 0. in
  let parts =
    {
      part =
        (fun f ->
          let before = List.hd !cals in
          let c0 = cpu_s () and t0 = now_ns () in
          let v = f () in
          let w = seconds_since t0 and c = cpu_s () -. c0 in
          let after = calibrate () in
          cals := after :: !cals;
          let scale = 2. *. reference_s /. (before +. after) in
          raw := !raw +. w;
          wall := !wall +. (w *. scale);
          cpu := !cpu +. (c *. scale);
          v);
    }
  in
  let walls = ref [] and raws = ref [] and cpus = ref [] and rates = ref [] in
  let started = now_ns () in
  let rec loop i =
    Gc.compact ();
    raw := 0.;
    wall := 0.;
    cpu := 0.;
    let o = check ~parts prepared in
    verify i o;
    walls := !wall :: !walls;
    raws := !raw :: !raws;
    cpus := !cpu :: !cpus;
    rates := (float_of_int o.work /. !wall) :: !rates;
    Printf.printf "  check %d  %.4f s (%.4f s raw)  %s\n%!" i !wall !raw
      (answer_to_string o.answer);
    let elapsed = seconds_since started in
    if elapsed +. (elapsed /. float_of_int i) <= float_of_int seconds then loop (i + 1)
    else i
  in
  let n = loop 1 in
  let setup_times = setup_samples w ~seed ~first_s in
  let metrics =
    [
      ("verdict_s", median !walls);
      ("states_per_s", median !rates);
      ("cpu_s", median !cpus);
      ("peak_rss_mb", peak);
      ("setup_s", median setup_times);
    ]
  in
  let q1, q3 = quartiles !walls in
  Printf.printf "%s  seed %d  %d timed checks  %d set-ups  host at %.3fx reference time\n"
    w.name seed n (List.length setup_times) (median !cals /. reference_s);
  List.iter
    (fun m ->
      Printf.printf "  %-14s %14.6g %s\n" m.m_name (List.assoc m.m_name metrics)
        m.m_unit)
    end_to_end;
  Printf.printf "  %-14s %14.6g ratio\n" "failed_share"
    (float_of_int !failed /. float_of_int !attempted);
  Printf.printf "  verdict_s quartiles %.6g .. %.6g; raw median %.6g s\n" q1 q3
    (median !raws);
  print_endline
    (result_line ~attempted:!attempted ~failed:!failed
       (List.map
          (fun m -> (m.m_name, m.m_unit, List.assoc m.m_name metrics))
          end_to_end));
  if !failed > 0 then exit 1

(* --------------------------------------------------- child-process sweep *)

(* Run one workload in a fresh child process; returns its result record. *)
let spawn_run w ~seed ~seconds =
  let args =
    [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let status = Unix.close_process_in ic in
  match (status, List.nth_opt (List.rev lines) 0) with
  | Unix.WEXITED 0, Some line -> (
    match Json.parse line with
    | json -> Ok json
    | exception Json.Parse_error e -> Error ("unreadable result: " ^ e))
  | _, Some line when String.length line > 0 && line.[0] = '{' ->
    Error ("run failed: " ^ line)
  | _ -> Error "run failed without a result"

let metric_of json name =
  Option.bind (Json.member "metrics" json) (fun ms ->
      Option.bind (Json.member name ms) (fun m ->
          Option.bind (Json.member "value" m) Json.to_float))

let int_field json name =
  match Option.bind (Json.member name json) Json.to_float with
  | Some x -> int_of_float x
  | None -> 0

let meta ~seconds =
  let commit =
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] with
    | ic ->
      let line = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      line
    | exception Unix.Unix_error _ -> "unknown"
  in
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str commit);
      ("seconds", Json.Num (float_of_int seconds));
    ]

(* ----------------------------------------------------------- summaries *)

let runs_of ?set doc =
  let sets = Json.to_list (Option.value ~default:Json.Null (Json.member "sets" doc)) in
  let sets =
    match set with
    | None -> sets
    | Some i -> (
      match List.nth_opt sets i with
      | Some s -> [ s ]
      | None -> die "no set %d in the result file" i)
  in
  List.concat_map
    (fun s -> Json.to_list (Option.value ~default:Json.Null (Json.member "runs" s)))
    sets

(* One metric of one workload across runs. *)
let values runs ~workload ~metric =
  List.filter_map
    (fun r ->
      if Json.member "workload" r = Some (Json.Str workload) then metric_of r metric
      else None)
    runs

let summarize runs =
  List.iter
    (fun w ->
      let mine =
        List.filter (fun r -> Json.member "workload" r = Some (Json.Str w.name)) runs
      in
      if mine <> [] then begin
        let attempted = List.fold_left (fun n r -> n + int_field r "attempted") 0 mine in
        let failed = List.fold_left (fun n r -> n + int_field r "failed") 0 mine in
        let errors = List.length (List.filter (fun r -> Json.member "error" r <> None) mine) in
        Printf.printf "%s: %d runs, failed_share %g (%d of %d checks)%s\n" w.name
          (List.length mine)
          (if attempted = 0 then 1. else float_of_int failed /. float_of_int attempted)
          failed attempted
          (if errors > 0 then Printf.sprintf ", %d runs without a result" errors else "");
        List.iter
          (fun m ->
            match values runs ~workload:w.name ~metric:m.m_name with
            | [] -> ()
            | vs ->
              let med = median vs and q1, q3 = quartiles vs in
              Printf.printf "  %-14s median %12.6g %-4s  quartiles %.6g .. %.6g  spread %.1f%%\n"
                m.m_name med m.m_unit q1 q3 (100. *. (q3 -. q1) /. med))
          end_to_end
      end)
    all

let sweep ~seed ~runs ~sets ~seconds ~out =
  let any_failed = ref false in
  let set_results =
    List.init sets (fun j ->
        let records =
          List.concat_map
            (fun i ->
              let seed = seed + (j * runs) + i in
              List.map
                (fun w ->
                  match spawn_run w ~seed ~seconds with
                  | Ok json ->
                    let failed = int_field json "failed" in
                    if failed > 0 then any_failed := true;
                    Printf.printf "set %d seed %-3d %-17s %s%s\n%!" j seed w.name
                      (String.concat "  "
                         (List.map
                            (fun m ->
                              Printf.sprintf "%s=%.4g" m.m_name
                                (Option.value ~default:nan (metric_of json m.m_name)))
                            end_to_end))
                      (if failed > 0 then "  FAILED" else "");
                    Json.Obj
                      (("workload", Json.Str w.name)
                      :: ("seed", Json.Num (float_of_int seed))
                      :: (match json with Json.Obj fields -> fields | _ -> []))
                  | Error e ->
                    any_failed := true;
                    Printf.printf "set %d seed %-3d %-17s %s\n%!" j seed w.name e;
                    Json.Obj
                      [
                        ("workload", Json.Str w.name);
                        ("seed", Json.Num (float_of_int seed));
                        ("error", Json.Str e);
                      ])
                all)
            (List.init runs Fun.id)
        in
        records)
  in
  let meta = meta ~seconds in
  (match out with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir "results.json" in
    (* One run per line, so result files diff and review line by line. *)
    Out_channel.with_open_bin path (fun oc ->
        Printf.fprintf oc "{\"meta\": %s,\n \"sets\": [" (Json.to_string meta);
        List.iteri
          (fun j runs ->
            Printf.fprintf oc "%s\n  {\"runs\": [\n    %s\n  ]}" (if j > 0 then "," else "")
              (String.concat ",\n    " (List.map Json.to_string runs)))
          set_results;
        output_string oc "\n]}\n");
    Printf.printf "wrote %s\n" path);
  summarize (List.concat set_results);
  if !any_failed then exit 1

(* ------------------------------------------------------------- compare *)

(* Bounds as BENCHMARK.json fixes them: metric -> largest tolerated
   worsening, as a share of the baseline median. *)
let load_bounds path =
  let doc = try Json.read_file path with Sys_error e | Json.Parse_error e -> die "%s" e in
  List.filter_map
    (fun m ->
      match (Option.bind (Json.member "name" m) Json.to_str,
             Option.bind (Json.member "bound" m) Json.to_float) with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" doc)))

(* Set-up regressions smaller than this many seconds are noise whatever
   their share. *)
let setup_floor_s = 0.005

let load_side spec =
  let path, set =
    match String.rindex_opt spec ':' with
    | Some i -> (
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some n -> (String.sub spec 0 i, Some n)
      | None -> (spec, None))
    | None -> (spec, None)
  in
  let doc = try Json.read_file path with Sys_error e | Json.Parse_error e -> die "%s" e in
  runs_of ?set doc

let compare_files a b =
  let bounds = load_bounds "BENCHMARK.json" in
  let ra = load_side a and rb = load_side b in
  let regressed = ref false in
  Printf.printf "%-17s %-13s %26s %26s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "status";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          match
            ( values ra ~workload:w.name ~metric:m.m_name,
              values rb ~workload:w.name ~metric:m.m_name,
              List.assoc_opt m.m_name bounds )
          with
          | [], _, _ | _, [], _ | _, _, None -> ()
          | va, vb, Some bound ->
            let ma = median va and mb = median vb in
            let a1, a3 = quartiles va and b1, b3 = quartiles vb in
            let change = (mb -. ma) /. ma in
            let worse = if m.better = Lower then change else -.change in
            let spread = Float.max ((a3 -. a1) /. ma) ((b3 -. b1) /. mb) in
            let status =
              if spread > bound then "unresolved"
              else if
                worse > bound
                && not (m.m_name = "setup_s" && Float.abs (mb -. ma) < setup_floor_s)
              then (regressed := true; "regressed")
              else "ok"
            in
            Printf.printf "%-17s %-13s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.1f%%  %s\n"
              w.name m.m_name ma a1 a3 mb b1 b3 (100. *. change) status)
        end_to_end)
    all;
  if !regressed then exit 1

(* ---------------------------------------------------------------- main *)

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 20 in
  let runs = ref 1 and sets = ref 1 and out = ref None in
  let compare = ref None in
  let pending = ref None in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W run one workload in this process");
      ("--seed", Arg.Set_int seed, "N input seed (default 0)");
      ("--seconds", Arg.Set_int seconds, "S how long a run times checks (default 20)");
      ("--trace", Arg.Int (fun t -> if t <> 0 then die "tracing is probe.exe's job"),
       "0 accepted for symmetry with probe.exe");
      ("--runs", Arg.Set_int runs, "R runs per set in a sweep (default 1)");
      ("--sets", Arg.Set_int sets, "K sets in a sweep (default 1)");
      ("--out", Arg.String (fun s -> out := Some s), "DIR write DIR/results.json");
      ("--compare", Arg.Tuple [ Arg.String (fun a -> pending := Some a);
                                Arg.String (fun b -> compare := Option.map (fun a -> (a, b)) !pending) ],
       "A.json[:SET] B.json[:SET] compare two result files");
    ]
  in
  let usage = "main.exe [--workload W] [--seed N] [--seconds S] ... (see README.md)" in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> die "%s" msg);
  if !seconds < 1 then die "--seconds must be at least 1";
  match (!compare, !workload) with
  | Some (a, b), _ -> compare_files a b
  | None, Some name -> (
    match find name with
    | Some w -> run_one w ~seed:!seed ~seconds:!seconds
    | None -> die "unknown workload %s" name)
  | None, None -> sweep ~seed:!seed ~runs:!runs ~sets:!sets ~seconds:!seconds ~out:!out
