open Subc_sim

(* A solo run that never terminates, or hangs, ends the search with its
   refutation. *)
exception Failed of Verdict.t

let refute ~prefix ~spin fmt =
  Printf.ksprintf
    (fun reason -> raise (Failed (Verdict.refuted ~trace:(prefix @ spin) reason)))
    fmt

(* The memo entry of a solo state whose distance is still being
   computed: it lies on the current solo path. *)
let on_path = -1

(* A solo run of process [p] reads and writes only the store and [p]'s
   own slot, so its distance is a function of that projection.  [p]'s
   memo key is the projection's homomorphic fingerprint: [hom_base] plus
   every store slot's mix ([store_sum]) plus [p]'s slot mix. *)
let store_sum (config : Config.t) =
  let acc = ref (Fingerprint.hom_base ~n_procs:(Config.n_procs config)) in
  Store.iter config.Config.store (fun h st ->
      acc := Fingerprint.hom_add !acc (Fingerprint.mix_store_slot h st));
  !acc

(* The from-scratch fold of [p]'s key: the [~paranoid] reference. *)
let solo_key_refold config p =
  Fingerprint.hom_add (store_sum config)
    (Fingerprint.mix_proc_slot p config.Config.procs.(p))

(* One domain's solo memos and the slot mixes of the configuration it
   visited last.  Consecutive visits mostly differ in one process slot
   and a few store slots, so a visit's keys are the last visit's with the
   changed slots patched: [store_sum] ([hom_base] plus the store's slot
   mixes) through [Store.diff], and each process's mix from the proc
   record it was computed for. *)
type domain = {
  memos : int Fingerprint.Tbl.t array;  (** one per process *)
  mutable store : Store.t;
  mutable store_sum : Fingerprint.t;
  procs : Config.proc array;
  proc_mixes : Fingerprint.t array;
}

let make_domain (config0 : Config.t) =
  {
    memos =
      Array.init (Config.n_procs config0) (fun _ ->
          Fingerprint.Tbl.create 4096);
    store = config0.Config.store;
    store_sum = store_sum config0;
    procs = Array.copy config0.Config.procs;
    proc_mixes = Array.mapi Fingerprint.mix_proc_slot config0.Config.procs;
  }

(* Bring [d]'s store sum up to [store]. *)
let sync_store d store =
  if store != d.store then begin
    let ctx = Fingerprint.patching d.store_sum in
    Fingerprint.patch_stores_by ctx Fingerprint.feed_value d.store
      (Store.diff d.store store);
    d.store_sum <- Fingerprint.patched ctx;
    d.store <- store
  end

(* [p]'s memo key in the configuration whose store [d] was synced to and
   whose slot [p] holds [proc]. *)
let solo_key d p proc =
  let old = d.procs.(p) in
  if old != proc then begin
    d.proc_mixes.(p) <- Fingerprint.hom_patch_proc d.proc_mixes.(p) p old proc;
    d.procs.(p) <- proc
  end;
  Fingerprint.hom_add d.store_sum d.proc_mixes.(p)

(* Exact solo distance of process [p] from [config]: the number of steps
   [p] needs to terminate running alone, maximized over object
   nondeterminism.  [memo] is [p]'s own table, keyed by the solo key;
   [key] is [config]'s, and each solo successor's is patched from its
   parent's ([Explore.patched_fingerprint] rewrites [p]'s slot and the
   store slots, which is all a solo key holds), so nothing is re-folded.
   Meeting an [on_path] entry is a revisit of a solo state on the current
   solo path (possible only through [Program.checkpoint], which resets
   the history): an infinite solo run.  Under [~paranoid] every key the
   memo takes is checked against a from-scratch fold. *)
let solo_distance ~memo ~paranoid ~solo_limit ~prefix p config key =
  let rec go config key depth rev_spin =
    match Fingerprint.Tbl.find_opt memo key with
    | Some d when d <> on_path -> d
    | seen ->
      if Option.is_some seen || depth >= solo_limit then begin
        let prefix = Lazy.force prefix in
        refute ~prefix ~spin:(List.rev rev_spin)
          "process %d does not terminate running solo after a %d-step prefix"
          p (Trace.length prefix)
      end;
      if paranoid && not (Fingerprint.equal key (solo_key_refold config p))
      then
        invalid_arg
          "progress.wait_free: an incremental solo key disagrees with the \
           paranoid re-fold";
      Fingerprint.Tbl.replace memo key on_path;
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
              let key' = Explore.patched_fingerprint config key slots config' in
              max acc (1 + go config' key' (depth + 1) rev_spin))
          0
          (Step.step_slots config p)
      in
      Fingerprint.Tbl.replace memo key d;
      d
  in
  go config key 0 []

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
  (* Domain [id] alone forces and uses [domains.(id)], so no lock.  The
     exact distances are deterministic, so per-domain memos change only
     timing, never the resulting bound. *)
  let domains =
    Array.init (max 1 options.Search.jobs) (fun _ ->
        lazy (make_domain config0))
  in
  let visit id config prefix =
    let d = Lazy.force domains.(id) in
    Atomic.incr configs;
    sync_store d config.Config.store;
    List.iter
      (fun p ->
        let key = solo_key d p config.Config.procs.(p) in
        atomic_max bound
          (solo_distance ~memo:d.memos.(p) ~paranoid ~solo_limit ~prefix p
             config key))
      (Config.running config)
  in
  match Search.iter_reachable_by_domain ~options config0 ~f:visit with
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
