(* Every workload at a small size (Alg5 k=3, census k=3 ops=1) for seeds
   0 and 1: the seed only relabels inputs, so the answers must be
   identical, and none may be a refutation.  Also pins the quartile
   method and the result-record format the driver relies on. *)

open Bench_workloads
open Workloads

let fail fmt = Printf.ksprintf failwith fmt

let () =
  let answers seed =
    List.map (fun w -> (w.name, (check (prepare ~size:Small w ~seed)).answer)) all
  in
  List.iter2
    (fun (name, a0) (_, a1) ->
      if a0 <> a1 then
        fail "%s: seed 0 answers %s, seed 1 answers %s" name (answer_to_string a0)
          (answer_to_string a1);
      if List.assoc_opt "verdict" a0 = Some "refuted" then fail "%s: refuted" name;
      Printf.printf "%-17s %s\n" name (answer_to_string a0))
    (answers 0) (answers 1)

(* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
let () =
  let q1, q3 = quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  if (q1, q3) <> (2.75, 8.25) then fail "quartiles: %g %g" q1 q3

let () =
  let line =
    result_line ~attempted:3 ~failed:0 [ ("verdict_s", "s", 0.1234567891234) ]
  in
  match Json.parse line with
  | Json.Obj
      [ ("correct", Json.Bool true); ("attempted", Json.Num 3.); ("failed", Json.Num 0.);
        ("metrics", Json.Obj [ ("verdict_s", Json.Obj [ ("value", Json.Num v); _ ]) ]) ]
    when v = 0.1234567891234 ->
    ()
  | _ -> fail "result record does not round-trip: %s" line
