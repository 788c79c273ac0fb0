(* Experiment harness.

   [dune exec bench/main.exe] runs the full experiment matrix (E1–E18, the
   reproduction of the paper's theorems — the paper has no tables/figures;
   each table asserts its known answers) followed by the bechamel timing
   benches (B1–B7, printed only).

   [dune exec bench/main.exe -- experiments] / [-- timing] run one half;
   [-- e6] / [-- e10] / [-- e12] / [-- e13] / [-- e15] / [-- e16] /
   [-- e18] run a single experiment (the CI smoke jobs).
   [--metrics] streams observability events and a final metrics snapshot;
   with [--json] both go to stdout as JSON lines (the CI artifact).
   Time to verdict, with pinned answers, a baseline and per-layer
   metrics, is measured by benchmark/ (see benchmark/README.md). *)

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
    | "e6" -> Experiments.run_e6 ()
    | "e10" -> Experiments.run_e10 ()
    | "e12" -> Experiments.run_e12 ()
    | "e13" -> Experiments.run_e13 ()
    | "e15" -> Experiments.run_e15 ()
    | "e16" -> Experiments.run_e16 ()
    | "e18" -> Experiments.run_e18 ()
    | "all" ->
      let ok = Experiments.run_all () in
      Timing.run_all ();
      ok
    | other ->
      Printf.eprintf "bench: unknown experiment %S\n" other;
      exit 2
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
