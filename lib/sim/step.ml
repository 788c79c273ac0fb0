type event = {
  proc : int;
  obj : int;
  obj_kind : string;
  op : Op.t;
  resp : Value.t option;
}

let pp_event ppf e =
  match e.resp with
  | Some r ->
    Format.fprintf ppf "P%d: #%d:%s.%a -> %a" e.proc e.obj e.obj_kind Op.pp e.op
      Value.pp r
  | None ->
    Format.fprintf ppf "P%d: #%d:%s.%a -> HANG" e.proc e.obj e.obj_kind Op.pp
      e.op

(* The slots a transition rewrote, for the incremental fingerprint: every
   transition touches exactly one process slot, and at most the store
   slots listed (in increasing handle order).  Everything else in the
   successor is physically shared with the parent, so patching these
   slots into the parent's homomorphic fingerprint reconstructs the
   child's exactly. *)
type slots = { sl_proc : int; sl_store : (Store.handle * Value.t) list }

let step_slots (c : Config.t) i =
  let proc = c.procs.(i) in
  match proc.Config.status with
  | Config.Terminated _ | Config.Hung | Config.Crashed ->
    invalid_arg (Printf.sprintf "Step.step: process %d cannot step" i)
  | Config.Running (Program.Return _ | Program.Checkpoint _)
  | Config.Recovering (Program.Return _ | Program.Checkpoint _) ->
    (* Normalized away by [Config.advance]; unreachable. *)
    assert false
  (* A [Recovering] process steps exactly like a [Running] one; its first
     step re-normalizes the status through [Config.advance], so the
     transient tag lasts one transition. *)
  | Config.Running (Program.Invoke (h, op, k))
  | Config.Recovering (Program.Invoke (h, op, k)) ->
    let kind = Store.kind c.store (h : Store.handle) in
    let old_st = Store.state c.store h in
    let with_proc status history =
      let procs = Array.copy c.procs in
      procs.(i) <-
        {
          Config.status;
          history;
          steps = proc.Config.steps + 1;
          recoveries = proc.Config.recoveries;
        };
      procs
    in
    let successors = Store.apply c.store h op in
    let event resp =
      { proc = i; obj = (h :> int); obj_kind = kind; op; resp }
    in
    (match successors with
    | [] ->
      let procs = with_proc Config.Hung proc.Config.history in
      [ ({ c with procs }, event None, { sl_proc = i; sl_store = [] }) ]
    | _ ->
      List.map
        (fun (store', resp) ->
          let status, history =
            Config.advance (k resp) (resp :: proc.Config.history)
          in
          let procs = with_proc status history in
          let st' = Store.state store' h in
          let sl_store = if st' == old_st then [] else [ (h, st') ] in
          ( { c with Config.store = store'; procs },
            event (Some resp),
            { sl_proc = i; sl_store } ))
        successors)

let step c i = List.map (fun (c', e, _) -> (c', e)) (step_slots c i)

(* Crash transitions: instead of stepping, any running process can crash.
   One successor per running process, paired with the victim's index.
   A crash rewrites only the victim's proc slot ([Config.crash] leaves
   the store untouched). *)
let crash_successors_slots (c : Config.t) =
  List.map
    (fun i -> (Config.crash c i, i, { sl_proc = i; sl_store = [] }))
    (Config.running c)

(* Recovery transitions: any crashed process can recover, restarting its
   initial program over persistent object state.  One successor per
   crashed process, paired with the recoverer's index.  A recovery
   rewrites the recoverer's proc slot plus whichever store slots the
   persistence projection actually changed — [] for fully persistent
   stores, which [Store.recover] returns physically unchanged, and only
   the genuinely erased slots otherwise ([Store.recover] preserves
   per-slot sharing on projection fixed points, so the diff is the delta
   against the persistence projection, not the whole volatile store). *)
let recover_successors_slots (c : Config.t) =
  List.map
    (fun i ->
      let c' = Config.recover c i in
      ( c',
        i,
        { sl_proc = i; sl_store = Store.diff c.Config.store c'.Config.store }
      ))
    (Config.crashed c)
