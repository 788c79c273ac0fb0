open Subc_sim

(* A solo run that never terminates, or hangs, ends the search with its
   refutation. *)
exception Failed of Verdict.t

let refute ~prefix ~spin fmt =
  Printf.ksprintf
    (fun reason -> raise (Failed (Verdict.refuted ~trace:(prefix @ spin) reason)))
    fmt

(* The memo entry of a configuration whose solo distance is still being
   computed: it lies on the current solo path. *)
let on_path = -1

(* Exact solo distance of process [p] from [config]: the number of steps
   [p] needs to terminate running alone, maximized over object
   nondeterminism.  [memo] is [p]'s own table, keyed by homomorphic
   fingerprint; [fp] is [config]'s, and each solo successor's is patched
   from its parent's, so nothing is re-folded.  Meeting an [on_path] entry
   is a revisit of a configuration on the current solo path (possible only
   through [Program.checkpoint], which resets the history): an infinite
   solo run.  Under [~paranoid] every configuration entered is re-folded
   and checked against its patched fingerprint. *)
let solo_distance ~memo ~paranoid ~solo_limit ~prefix p config fp =
  let rec go config fp depth rev_spin =
    match Fingerprint.Tbl.find_opt memo fp with
    | Some d when d <> on_path -> d
    | seen ->
      if Option.is_some seen || depth >= solo_limit then begin
        let prefix = Lazy.force prefix in
        refute ~prefix ~spin:(List.rev rev_spin)
          "process %d does not terminate running solo after a %d-step prefix"
          p (Trace.length prefix)
      end;
      if
        paranoid
        && not (Fingerprint.equal fp (Fingerprint.hom_of_config config))
      then
        invalid_arg
          "progress.wait_free: an incremental fingerprint patch disagrees with \
           the paranoid re-fold";
      Fingerprint.Tbl.replace memo fp on_path;
      let d =
        List.fold_left
          (fun acc (config', event, slots) ->
            let rev_spin = Trace.Sched event :: rev_spin in
            match config'.Config.procs.(p).Config.status with
            | Config.Terminated _ | Config.Crashed -> max acc 1
            | Config.Hung ->
              let prefix = Lazy.force prefix in
              refute ~prefix ~spin:(List.rev rev_spin)
                "process %d hangs (illegal invocation) running solo after a \
                 %d-step prefix"
                p (Trace.length prefix)
            | Config.Running _ | Config.Recovering _ ->
              let fp' = Explore.patched_fingerprint config fp slots config' in
              max acc (1 + go config' fp' (depth + 1) rev_spin))
          0
          (Step.step_slots config p)
      in
      Fingerprint.Tbl.replace memo fp d;
      d
  in
  go config fp 0 []

(* Lock-free running maximum. *)
let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let check_wait_free ?(options = Search.default) ?(solo_limit = 10_000) store
    ~programs =
  Subc_obs.Span.time "progress.wait_free" @@ fun () ->
  let config0 = Config.make store programs in
  let paranoid = options.Search.paranoid in
  let bound = Atomic.make 0 in
  let configs = Atomic.make 0 in
  (* One solo-distance memo per process, per domain: domain [id] alone
     forces and uses [memos.(id)], so no lock.  The exact distances are
     deterministic, so per-domain memos change only timing, never the
     resulting bound. *)
  let memos =
    Array.init (max 1 options.Search.jobs) (fun _ ->
        lazy
          (Array.init (Config.n_procs config0) (fun _ ->
               Fingerprint.Tbl.create 4096)))
  in
  let visit id config fp prefix =
    let memo = Lazy.force memos.(id) in
    Atomic.incr configs;
    List.iter
      (fun p ->
        atomic_max bound
          (solo_distance ~memo:memo.(p) ~paranoid ~solo_limit ~prefix p config
             fp))
      (Config.running config)
  in
  match Search.iter_reachable_fp ~options config0 ~f:visit with
  | stats when stats.Explore.limited ->
    Verdict.limited ~explore:stats "exploration truncated — no verdict"
  | stats ->
    let solo_bound = Atomic.get bound and configs = Atomic.get configs in
    Verdict.proved ~explore:stats
      ~metrics:
        [
          ("solo_bound", float_of_int solo_bound);
          ("configs", float_of_int configs);
        ]
      (Printf.sprintf
         "wait-free: every process terminates within %d solo steps from \
          every reachable configuration (%d configurations)"
         solo_bound configs)
  | exception Failed v -> v

(* Termination with at most [t] crashes is the pipeline with "no process
   hangs" as the terminal check: a hang is refuted by the schedule that
   reaches the hung terminal, a cycle by its lasso. *)
let check_t_resilient ?(options = Search.default) ~t store ~programs =
  Subc_obs.Span.time "progress.t_resilient" @@ fun () ->
  Task_check.verdict
    ~options:(Search.with_max_crashes t options)
    (Config.make store programs)
    ~explain:(fun c ->
      if Config.any_hung c then
        Some "some execution hangs a process (illegal object use)"
      else None)
    ~proved:
      (Printf.sprintf
         "every schedule with <= %d crashes terminates (no cycles, no hangs)" t)
