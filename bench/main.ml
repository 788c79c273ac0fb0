(* Experiment harness.

   [dune exec bench/main.exe] prints the experiment tables (E1–E18, the
   reproduction of the paper's theorems — the paper has no tables/figures)
   followed by the bechamel timing benches (B1–B7).  Both print only: each
   table row's known answers are literals in bench/experiments.ml, and
   [dune runtest] checks every row (test/test_experiments.ml).

   [dune exec bench/main.exe -- experiments] / [-- timing] run one half;
   [-- <id>] prints one table ([e1] … [e18], [e8-partition], [scaling]).
   Time to verdict, with pinned answers, a baseline and per-layer
   metrics, is measured by benchmark/ (see benchmark/README.md). *)

open Experiments

(* A table whose rows time their search gets one more column: each
   row's wall-clock seconds. *)
let print_table t =
  let timed = List.exists (fun (r : row) -> r.seconds <> None) t.rows in
  let cells (r : row) =
    let cells = r.cells () in
    match r.seconds with
    | Some seconds -> cells @ [ Printf.sprintf "%.2fs" (seconds ()) ]
    | None -> cells
  in
  let header = if timed then t.header @ [ "time" ] else t.header in
  let rows = List.map cells t.rows in
  Format.printf "@.%s@." t.title;
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    Format.printf "| %s |@."
      (String.concat " | "
         (List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths row))
  in
  print_row header;
  Format.printf "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows

let experiments () =
  Format.printf
    "=== Experiment tables (the paper has no tables/figures; these \
     reproduce its theorems — see EXPERIMENTS.md) ===@.";
  List.iter print_table tables

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "all" ] ->
    experiments ();
    Timing.run_all ()
  | [ "experiments" ] -> experiments ()
  | [ "timing" ] -> Timing.run_all ()
  | args -> (
    match List.find_opt (fun t -> [ t.id ] = args) tables with
    | Some t -> print_table t
    | None ->
      Printf.eprintf "bench: unknown experiment %S\n" (String.concat " " args);
      exit 2)
