(* Wall clock, not CPU time: a phase that fans out over several domains,
   or sleeps, must not be inflated or hidden by the process's CPU
   seconds. *)
let time label f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      Sink.emit "span"
        [
          ("label", Sink.Str label);
          ("seconds", Sink.Float (Unix.gettimeofday () -. t0));
        ])
