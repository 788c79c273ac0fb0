(* Benchmark/experiment harness.

   [dune exec bench/main.exe] runs the full experiment matrix (E1–E16, the
   reproduction of the paper's theorems — the paper has no tables/figures)
   followed by the bechamel timing benches (B1–B5).

   [dune exec bench/main.exe -- experiments] / [-- timing] run one half;
   [-- e15] / [-- e16] / [-- e17] run a single experiment (the CI smoke
   jobs); [-- perf] runs the fingerprint/multicore performance sweep and
   writes BENCH_results.json (jobs list configurable with [--jobs N]).
   [--metrics] streams observability events and a final metrics snapshot;
   with [--json] both go to stdout as JSON lines (the CI artifact). *)

module Obs = Subc_obs

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let metrics = List.mem "--metrics" args in
  let what =
    match List.filter (fun a -> not (String.starts_with ~prefix:"--" a)) args with
    | [] -> "all"
    | w :: _ -> w
  in
  if metrics then
    Obs.Sink.set (if json then Obs.Sink.jsonl stdout else Obs.Sink.stderr_sink);
  let ok =
    match what with
    | "experiments" -> Experiments.run_all ()
    | "timing" ->
      Timing.run_all ();
      true
    | "e15" -> Experiments.run_e15 ()
    | "e16" -> Experiments.run_e16 ()
    | "e17" -> Experiments.run_e17 ()
    | "e18" -> Experiments.run_e18 ()
    | "e19" -> Experiments.run_e19 ()
    | "e21" -> Experiments.run_e21 ()
    | "perf" ->
      (* [--jobs N] caps the sweep at N domains (the default sweeps
         1/2/4/8 regardless of the host's core count). *)
      let jobs_list =
        let rec find = function
          | "--jobs" :: n :: _ -> int_of_string_opt n
          | _ :: rest -> find rest
          | [] -> None
        in
        match find args with
        | Some n when n >= 1 ->
          List.filter (fun j -> j <= max n 1) [ 1; 2; 4; 8 ]
        | _ -> [ 1; 2; 4; 8 ]
      in
      Timing.run_perf ~jobs_list ();
      true
    | _ ->
      let ok = Experiments.run_all () in
      Timing.run_all ();
      ok
  in
  if metrics then begin
    Obs.Metrics.emit_snapshot ();
    List.iter
      (fun (label, secs) ->
        Obs.Sink.emit "span_total"
          [ ("label", Obs.Sink.Str label); ("seconds", Obs.Sink.Float secs) ])
      (Obs.Span.totals ());
    Obs.Sink.flush ()
  end;
  if not ok then exit 1
