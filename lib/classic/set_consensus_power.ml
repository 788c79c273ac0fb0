open Subc_sim
open Program.Syntax
module Register = Subc_objects.Register
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

let inputs ~n = List.init n (fun i -> Value.Int (100 + i))

(* Canonical protocols.  Every protocol announces its proposal first so
   adopters can look values up by process index. *)
let protocol store family ~n =
  let store, announcements = Store.alloc_many store n Register.model_bot in
  let announce me v = Register.write (List.nth announcements me) v in
  let value_of who = Register.read (List.nth announcements who) in
  let store, program =
    match family with
    | Registers ->
      (* Decide own value: the trivial n-set consensus, and the best
         registers can do wait-free. *)
      (store, fun _me v -> Program.return v)
    | Wrn_objects j ->
      let store, alg = Store.alloc_many store ((n + j - 1) / j) (Subc_objects.Wrn.model ~k:j) in
      ( store,
        fun me v ->
          let group = List.nth alg (me / j) in
          let* r = Subc_objects.Wrn.wrn group (me mod j) v in
          Program.return (if Value.is_bot r then v else r) )
    | Two_consensus_pairs ->
      (* Processes 2g and 2g+1 share a swap; an unpaired last process
         decides its own value. *)
      let pairs = n / 2 in
      let store, swaps =
        Store.alloc_many store (max pairs 1) Subc_objects.Swap_obj.model_bot
      in
      ( store,
        fun me v ->
          if me >= 2 * pairs then Program.return v
          else
            let s = List.nth swaps (me / 2) in
            let* () = announce me v in
            let* prev = Subc_objects.Swap_obj.swap s (Value.Int me) in
            match prev with
            | Value.Bot -> Program.return v
            | Value.Int who -> value_of who
            | _ -> assert false )
    | Sse_object j ->
      let store, h = Store.alloc store (Subc_objects.Sse_obj.model ~k:j ~j:(j - 1)) in
      ( store,
        fun me v ->
          let* () = announce me v in
          let* w = Subc_objects.Sse_obj.propose h me in
          if w = me then Program.return v else value_of w )
    | Cas_object ->
      let store, c = Store.alloc store Subc_objects.Cas_obj.model_bot in
      ( store,
        fun _me v ->
          let* _ = Subc_objects.Cas_obj.compare_and_swap c ~expected:Value.Bot ~desired:v in
          Subc_objects.Cas_obj.read c )
  in
  (store, List.mapi program (inputs ~n))

let verdict family ~n ~k =
  let store, programs = protocol Store.empty family ~n in
  let task = Task.conj (Task.set_consensus k) Task.all_decided in
  Subc_check.Task_check.verdict
    (Config.make store programs)
    ~explain:(Task.explain task ~inputs:(inputs ~n))
    ~proved:
      (Printf.sprintf
         "(%d,%d)-set consensus on every terminal, every schedule terminates"
         n k)
