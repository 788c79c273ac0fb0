(* The known-answer tables E1–E18 of EXPERIMENTS.md: one case per row, one
   group per table.  Each row's expected cells are literals in
   bench/experiments.ml, beside how to compute them; bench/main.exe prints
   the same rows. *)
open Experiments

let suite =
  List.map
    (fun t ->
      ( "experiments." ^ t.id,
        List.map
          (fun r ->
            Helpers.test r.name (fun () ->
                Alcotest.(check int) "one cell per column" (List.length t.header)
                  (List.length r.expect);
                Alcotest.(check (list string)) r.name r.expect (r.cells ())))
          t.rows ))
    tables
