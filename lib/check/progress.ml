open Subc_sim

type certificate = {
  solo_bound : int;
  configs : int;
  stats : Explore.stats;
}

type failure =
  | Non_terminating of { proc : int; prefix : Trace.t; spin : Trace.t }
  | Hang of { proc : int; prefix : Trace.t; spin : Trace.t }
  | Limited of Explore.stats

let pp_certificate ppf c =
  Format.fprintf ppf
    "wait-free: every process terminates within %d solo steps from every \
     reachable configuration (%d configurations, %a)"
    c.solo_bound c.configs Explore.pp_stats c.stats

let pp_failure ppf = function
  | Non_terminating { proc; prefix; spin } ->
    Format.fprintf ppf
      "@[<v>NOT wait-free: process %d does not terminate running solo after \
       the %d-step prefix@,%a@,solo continuation (truncated):@,%a@]"
      proc (Trace.length prefix) Trace.pp prefix Trace.pp spin
  | Hang { proc; prefix; spin } ->
    Format.fprintf ppf
      "@[<v>NOT wait-free: process %d hangs (illegal invocation) running \
       solo after the %d-step prefix@,%a@,solo continuation:@,%a@]"
      proc (Trace.length prefix) Trace.pp prefix Trace.pp spin
  | Limited stats ->
    Format.fprintf ppf "exploration truncated — no verdict (%a)"
      Explore.pp_stats stats

exception Failed of failure

(* Structural fingerprints ({!Fingerprint.of_config}) replace the former
   [Digest.string (Marshal.to_string (Config.key config) [])] pipeline:
   one traversal, no marshal buffer, 126-bit collision resistance. *)
let fingerprint = Fingerprint.of_config

(* Exact solo distance of process [p] from [config]: the number of steps [p]
   needs to terminate running alone, maximized over object nondeterminism.
   Memoized per (configuration, process); a revisit of a configuration on
   the current solo path (possible only through [Program.checkpoint], which
   resets the history) witnesses an infinite solo run. *)
let solo_distance ~memo ~solo_limit ~prefix config0 p =
  let onstack = Hashtbl.create 16 in
  let rec go config depth rev_spin =
    match config.Config.procs.(p).Config.status with
    | Config.Terminated _ | Config.Crashed -> 0
    | Config.Hung ->
      raise
        (Failed
           (Hang { proc = p; prefix = Lazy.force prefix; spin = List.rev rev_spin }))
    | Config.Running _ | Config.Recovering _ ->
      let digest = fingerprint config in
      let key = (digest, p) in
      (match Hashtbl.find_opt memo key with
      | Some d -> d
      | None ->
        if depth >= solo_limit || Hashtbl.mem onstack digest then
          raise
            (Failed
               (Non_terminating
                  { proc = p; prefix = Lazy.force prefix; spin = List.rev rev_spin }));
        Hashtbl.add onstack digest ();
        let d =
          List.fold_left
            (fun acc (config', event) ->
              max acc (1 + go config' (depth + 1) (Trace.Sched event :: rev_spin)))
            0
            (Step.step config p)
        in
        Hashtbl.remove onstack digest;
        Hashtbl.replace memo key d;
        d)
  in
  go config0 0 []

(* Lock-free running maximum. *)
let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let wait_free_search ~options ~solo_limit store ~programs =
  Subc_obs.Span.time "progress.wait_free" @@ fun () ->
  let config0 = Config.make store programs in
  let bound = Atomic.make 0 in
  let configs = Atomic.make 0 in
  let visit memo config prefix =
    Atomic.incr configs;
    List.iter
      (fun p ->
        atomic_max bound (solo_distance ~memo ~solo_limit ~prefix config p))
      (Config.running config)
  in
  let explore () =
    if options.Search.jobs <= 1 then begin
      let memo = Hashtbl.create 4096 in
      Search.iter_reachable ~options config0 ~f:(visit memo)
    end
    else begin
      (* The solo-distance memo is plain mutable state, so each worker
         domain keeps its own (domain-local storage): no locking on the
         hot path, at the price of some recomputation across domains.
         The exact distances are deterministic, so per-domain memos
         change only timing, never the resulting bound. *)
      let memo_key = Domain.DLS.new_key (fun () -> Hashtbl.create 4096) in
      Search.iter_reachable ~options config0 ~f:(fun config prefix ->
          visit (Domain.DLS.get memo_key) config prefix)
    end
  in
  match explore () with
  | stats when stats.Explore.limited -> Error (Limited stats)
  | stats ->
    Ok
      {
        solo_bound = Atomic.get bound;
        configs = Atomic.get configs;
        stats;
      }
  | exception Failed f -> Error f

(* Verdict-typed entry points over the result-typed search above. *)

let check_wait_free ?(options = Search.default) ?(solo_limit = 10_000) store
    ~programs =
  match wait_free_search ~options ~solo_limit store ~programs with
  | Ok cert ->
    Verdict.proved ~explore:cert.stats
      ~metrics:
        [
          ("solo_bound", float_of_int cert.solo_bound);
          ("configs", float_of_int cert.configs);
        ]
      (Printf.sprintf
         "wait-free: every process terminates within %d solo steps from \
          every reachable configuration (%d configurations)"
         cert.solo_bound cert.configs)
  | Error (Limited stats) ->
    Verdict.limited ~explore:stats "exploration truncated — no verdict"
  | Error (Non_terminating { proc; prefix; spin }) ->
    Verdict.refuted
      ~trace:(prefix @ spin)
      (Printf.sprintf
         "process %d does not terminate running solo after a %d-step prefix"
         proc (Trace.length prefix))
  | Error (Hang { proc; prefix; spin }) ->
    Verdict.refuted
      ~trace:(prefix @ spin)
      (Printf.sprintf
         "process %d hangs (illegal invocation) running solo after a \
          %d-step prefix"
         proc (Trace.length prefix))

let check_t_resilient ?(options = Search.default) ~t store ~programs =
  Subc_obs.Span.time "progress.t_resilient" @@ fun () ->
  let options = Search.with_max_crashes t options in
  match Search.find_cycle ~options (Config.make store programs) with
  | Some lasso, stats ->
    Verdict.refuted ~explore:stats ~trace:lasso
      (Printf.sprintf
         "infinite schedule with <= %d crashes (not %d-resilient \
          terminating)"
         t t)
  | None, stats ->
    if stats.Explore.limited then
      Verdict.limited ~explore:stats "state limit reached — no verdict"
    else if stats.Explore.hung_terminals > 0 then
      Verdict.refuted ~explore:stats ~trace:[]
        "some execution hangs a process (illegal object use)"
    else
      Verdict.proved ~explore:stats
        (Printf.sprintf
           "every schedule with <= %d crashes terminates (no cycles, no \
            hangs)"
           t)
