open Subc_sim
open Program.Syntax
module Register = Subc_objects.Register
module Task = Subc_tasks.Task

type family =
  | Register
  | Test_and_set
  | Fetch_and_add
  | Swap
  | Queue
  | Cas
  | Consensus_object

let family_name = function
  | Register -> "register"
  | Test_and_set -> "test-and-set"
  | Fetch_and_add -> "fetch-and-add"
  | Swap -> "swap"
  | Queue -> "queue"
  | Cas -> "compare-and-swap"
  | Consensus_object -> "consensus object"

let all_families =
  [ Register; Test_and_set; Fetch_and_add; Swap; Queue; Cas; Consensus_object ]

let solves_recoverable = function
  | Cas | Consensus_object -> true
  | Register | Test_and_set | Fetch_and_add | Swap | Queue -> false

(* The canonical protocol per family, in recoverable form (Golab–Ramaraju
   structure): a per-process persistent decision register is consulted
   first — a process that crashed {e after} persisting its decision
   re-decides consistently on recovery — and written last, so the protocol
   has an explicit window between winning the competition object and
   persisting the outcome.  That window is where the Ovens-style
   separations live: a test-and-set (or fetch-and-add, swap, queue) winner
   that crashes inside it re-competes on recovery, loses to its own dead
   incarnation, and adopts somebody else's value, while compare-and-swap
   and consensus objects answer the re-run of the competition step with
   the original outcome and stay correct. *)
let protocol store family ~n ~max_recoveries =
  let values = List.init n (fun i -> Value.Int i) in
  (* Per-process persistent decision cells, then announcement registers. *)
  let store, decs = Store.alloc_many store n Register.model_bot in
  let store, regs = Store.alloc_many store n Register.model_bot in
  let read_announcement who = Register.read (List.nth regs who) in
  let min_announced v =
    let* seen = Program.map_list Register.read regs in
    let candidates = List.filter (fun c -> not (Value.is_bot c)) seen in
    Program.return
      (List.fold_left
         (fun acc c -> if Value.compare c acc < 0 then c else acc)
         v candidates)
  in
  let recoverably me v body =
    let dec = List.nth decs me in
    let* d0 = Register.read dec in
    if not (Value.is_bot d0) then Program.return d0
    else
      let* () = Register.write (List.nth regs me) v in
      let* d = body () in
      let* () = Register.write dec d in
      Program.return d
  in
  let store, body =
    match family with
    | Register ->
      (store, fun _me v () -> min_announced v)
    | Test_and_set ->
      let store, b = Store.alloc store Subc_objects.Tas_obj.model in
      ( store,
        fun me v () ->
          let* already = Subc_objects.Tas_obj.test_and_set b in
          if not already then Program.return v
          else if n = 2 then read_announcement (1 - me)
          else min_announced v )
    | Fetch_and_add ->
      let store, f = Store.alloc store Subc_objects.Faa_obj.model in
      ( store,
        fun me v () ->
          let* rank = Subc_objects.Faa_obj.fetch_and_add f 1 in
          if rank = 0 then Program.return v
          else if n = 2 then read_announcement (1 - me)
          else min_announced v )
    | Swap ->
      let store, s = Store.alloc store Subc_objects.Swap_obj.model_bot in
      ( store,
        fun me v () ->
          let* prev = Subc_objects.Swap_obj.swap s (Value.Int me) in
          match prev with
          | Value.Bot -> Program.return v
          | Value.Int who -> read_announcement who
          | _ -> assert false )
    | Queue ->
      (* Enough "lose" tokens that every re-competition within the
         recovery budget still dequeues something. *)
      let tokens =
        Value.Sym "win"
        :: List.init (n - 1 + max_recoveries) (fun _ -> Value.Sym "lose")
      in
      let store, q = Store.alloc store (Subc_objects.Queue_obj.model tokens) in
      ( store,
        fun me v () ->
          let* tok = Subc_objects.Queue_obj.dequeue q in
          if Value.equal tok (Value.Sym "win") then Program.return v
          else if n = 2 then read_announcement (1 - me)
          else min_announced v )
    | Cas ->
      let store, c = Store.alloc store Subc_objects.Cas_obj.model_bot in
      ( store,
        fun _me v () ->
          let* _ =
            Subc_objects.Cas_obj.compare_and_swap c ~expected:Value.Bot
              ~desired:v
          in
          Subc_objects.Cas_obj.read c )
    | Consensus_object ->
      let store, c = Store.alloc store Subc_objects.Consensus_obj.model in
      (store, fun _me v () -> Subc_objects.Consensus_obj.propose c v)
  in
  (store, List.mapi (fun me v -> recoverably me v (body me v)) values)

(* Recoverable consensus on a terminal configuration: validity and
   agreement over the processes that decided (a process still crashed when
   the budgets run out decides nothing, which is allowed), and no process
   hangs.  At a terminal every process is terminated, hung or crashed, so
   "not hung" makes every surviving process's decision count. *)
let violation ~inputs c =
  if Config.any_hung c then
    Some "some execution hangs a process (illegal object use)"
  else Task.explain Task.consensus ~inputs c

let verdict ?(options = Search.default) family ~n ~max_recoveries =
  Subc_obs.Span.time "recoverable.verdict" @@ fun () ->
  let store, programs = protocol Store.empty family ~n ~max_recoveries in
  let inputs = List.init n (fun i -> Value.Int i) in
  (* Recoveries need crashes: a zero crash budget (the record default)
     means "pick for me" — the classic n−1 budget, widened so every
     recovery can be exercised. *)
  let max_crashes =
    if options.Search.max_crashes > 0 then options.Search.max_crashes
    else max (n - 1) max_recoveries
  in
  let options =
    options
    |> Search.with_max_crashes max_crashes
    |> Search.with_max_recoveries max_recoveries
  in
  let budgets =
    Printf.sprintf "crash budget %d, recovery budget %d" max_crashes
      max_recoveries
  in
  Task_check.verdict ~options (Config.make store programs)
    ~explain:(fun c ->
      Option.map
        (Printf.sprintf "recoverable consensus (%s): %s" budgets)
        (violation ~inputs c))
    ~proved:
      (Printf.sprintf
         "recoverable consensus (%s): agreement + validity on every \
          terminal, every schedule terminates"
         budgets)

(* The separation table: at n = 2, every consensus-number-2 object solves
   consensus with crashes only (r = 0) but the canonical protocol fails
   once one recovery is allowed; CAS and consensus objects survive
   recovery.  [expected family ~r] is what [verdict] should return at
   n = 2. *)
let expected family ~max_recoveries =
  match family with
  | Register -> `Refuted
  | Cas | Consensus_object -> `Proved
  | Test_and_set | Fetch_and_add | Swap | Queue ->
    if max_recoveries = 0 then `Proved else `Refuted
