open Subc_sim
open Program.Syntax
module Register = Subc_objects.Register
module Task = Subc_tasks.Task
module Task_check = Subc_check.Task_check
module Cn = Consensus_number

let all_families =
  Cn.[ Register; Test_and_set; Fetch_and_add; Swap; Queue; Cas; Consensus_object ]

(* Golab–Ramaraju structure: the decision register is consulted first —
   a process that crashed after persisting re-decides consistently — and
   written last, which leaves the window between winning the competition
   and persisting the outcome where the separations live. *)
let protocol store family ~n ~max_recoveries =
  let store, decs = Store.alloc_many store n Register.model_bot in
  let store, programs =
    Cn.protocol ~max_recoveries store family
      ~inputs:(List.init n (fun i -> Value.Int i))
  in
  let recoverably dec program =
    let* d0 = Register.read dec in
    if not (Value.is_bot d0) then Program.return d0
    else
      let* d = program in
      let* () = Register.write dec d in
      Program.return d
  in
  (store, List.map2 recoverably decs programs)

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
    Search.(
      options |> with_max_crashes max_crashes
      |> with_max_recoveries max_recoveries)
  in
  let property =
    Printf.sprintf
      "recoverable consensus (crash budget %d, recovery budget %d)"
      max_crashes max_recoveries
  in
  (* Validity and agreement over the processes that decided (a process
     still crashed when the budgets run out decides nothing, which is
     allowed), and no process hangs.  At a terminal every process is
     terminated, hung or crashed, so "not hung" makes every surviving
     process's decision count. *)
  let violation c =
    if Config.any_hung c then
      Some "some execution hangs a process (illegal object use)"
    else Task.explain Task.consensus ~inputs c
  in
  Task_check.verdict ~options (Config.make store programs)
    ~explain:(fun c ->
      Option.map (Printf.sprintf "%s: %s" property) (violation c))
    ~proved:
      (property
     ^ ": agreement + validity on every terminal, every schedule terminates"
      )
