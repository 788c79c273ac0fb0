(* Wall-time accumulation per phase label.  Wall clock, not CPU time: a
   phase that fans out over several domains, or sleeps, must not be
   inflated or hidden by the process's CPU seconds. *)

let totals_tbl : (string, float) Hashtbl.t = Hashtbl.create 16

let record label dt =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals_tbl label) in
  Hashtbl.replace totals_tbl label (prev +. dt)

let time label f =
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dt = Unix.gettimeofday () -. t0 in
    record label dt;
    Sink.emit "span" [ ("label", Sink.Str label); ("seconds", Sink.Float dt) ]
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let totals () =
  let xs = ref [] in
  Hashtbl.iter (fun k v -> xs := (k, v) :: !xs) totals_tbl;
  List.sort (fun (a, _) (b, _) -> compare a b) !xs

let total label = Hashtbl.find_opt totals_tbl label
let reset () = Hashtbl.reset totals_tbl
