open Subc_sim
module Task = Subc_tasks.Task

type family =
  | Registers
  | Wrn_objects of int
  | Two_consensus_pairs
  | Sse_object of int
  | Cas_object

let family_name = function
  | Registers -> "registers"
  | Wrn_objects j -> Printf.sprintf "WRN_%d objects" j
  | Two_consensus_pairs -> "2-consensus pairs"
  | Sse_object j -> Printf.sprintf "SSE(%d,%d) object" j (j - 1)
  | Cas_object -> "compare-and-swap"

let applicable family ~n =
  match family with Sse_object j -> n <= j | _ -> true

let predicted_bound family ~n =
  match family with
  | Registers -> n
  | Wrn_objects j -> ((j - 1) * (n / j)) + min (n mod j) (j - 1)
  | Two_consensus_pairs -> (n + 1) / 2
  | Sse_object j -> min n (j - 1)
  | Cas_object -> 1

let predicted family ~n ~k = predicted_bound family ~n <= k

(* Canonical protocols: consensus-number protocols run in groups, so at
   most one decision per group survives. *)
let protocol store family ~n =
  let family, size =
    match family with
    | Registers -> (Consensus_number.Register, 1)
    | Wrn_objects j -> (Consensus_number.Wrn j, j)
    | Two_consensus_pairs -> (Consensus_number.Swap, 2)
    | Sse_object j -> (Consensus_number.Strong_set_election j, n)
    | Cas_object -> (Consensus_number.Cas, n)
  in
  Consensus_number.grouped store family ~size ~inputs:(Subc_check.Harness.inputs n)

let verdict family ~n ~k =
  let store, programs = protocol Store.empty family ~n in
  let task = Task.conj (Task.set_consensus k) Task.all_decided in
  Subc_check.Task_check.verdict
    (Config.make store programs)
    ~explain:(Task.explain task ~inputs:(Subc_check.Harness.inputs n))
    ~proved:
      (Printf.sprintf
         "(%d,%d)-set consensus on every terminal, every schedule terminates"
         n k)
