open Subc_sim
open Program.Syntax
module Register = Subc_objects.Register

type family =
  | Register
  | Wrn of int
  | Swap
  | Test_and_set
  | Fetch_and_add
  | Queue
  | Cas
  | Consensus_object
  | Strong_set_election of int

let family_name = function
  | Register -> "register"
  | Wrn k -> Printf.sprintf "WRN_%d" k
  | Swap -> "swap"
  | Test_and_set -> "test-and-set"
  | Fetch_and_add -> "fetch-and-add"
  | Queue -> "queue"
  | Cas -> "compare-and-swap"
  | Consensus_object -> "consensus object"
  | Strong_set_election k -> Printf.sprintf "strong-set-election(%d,%d)" k (k - 1)

let known_consensus_number = function
  | Wrn 2 | Swap | Test_and_set | Fetch_and_add | Queue -> Some 2
  | Register | Wrn _ | Strong_set_election _ -> Some 1
  | Cas | Consensus_object -> None

(* Announcements let losers look values up by process index.  A loser
   adopts the winner's announcement when it can identify the winner;
   where the object does not reveal the winner (test-and-set,
   fetch-and-add, queue with n ≥ 3) it adopts the minimum announcement it
   can see — the natural (and for n ≥ 3 doomed) generalization. *)
let protocol ?(max_recoveries = 0) store family ~inputs =
  let n = List.length inputs in
  let store, regs = Store.alloc_many store n Register.model_bot in
  let announcement who = Register.read (List.nth regs who) in
  let min_announced v =
    let* seen = Program.map_list Register.read regs in
    let candidates = List.filter (fun c -> not (Value.is_bot c)) seen in
    Program.return
      (List.fold_left
         (fun acc c -> if Value.compare c acc < 0 then c else acc)
         v candidates)
  in
  let adopt me v ~won =
    if won then Program.return v
    else if n = 2 then announcement (1 - me)
    else min_announced v
  in
  let first_wins model won =
    let store, h = Store.alloc store model in
    (store, fun me v -> Program.bind (won h) (fun won -> adopt me v ~won))
  in
  let with_object model body =
    let store, h = Store.alloc store model in
    (store, body h)
  in
  let store, body =
    match family with
    | Register -> (store, fun _me v -> min_announced v)
    | Wrn k ->
      (* The Algorithm-2 mirror: write-and-read-next on your own index and
         adopt what you read.  For k = n = 2 this is the swap protocol. *)
      with_object (Subc_objects.Wrn.model ~k) (fun w me v ->
          let* r = Subc_objects.Wrn.wrn w (me mod k) v in
          Program.return (if Value.is_bot r then v else r))
    | Swap ->
      with_object Subc_objects.Swap_obj.model_bot (fun s me v ->
          let* prev = Subc_objects.Swap_obj.swap s (Value.Int me) in
          match prev with
          | Value.Bot -> Program.return v
          | Value.Int who -> announcement who
          | _ -> assert false)
    | Test_and_set ->
      first_wins Subc_objects.Tas_obj.model (fun b ->
          Program.map not (Subc_objects.Tas_obj.test_and_set b))
    | Fetch_and_add ->
      first_wins Subc_objects.Faa_obj.model (fun f ->
          Program.map (( = ) 0) (Subc_objects.Faa_obj.fetch_and_add f 1))
    | Queue ->
      let win = Value.Sym "win" in
      let tokens =
        win :: List.init (n - 1 + max_recoveries) (fun _ -> Value.Sym "lose")
      in
      first_wins (Subc_objects.Queue_obj.model tokens) (fun q ->
          Program.map (Value.equal win) (Subc_objects.Queue_obj.dequeue q))
    | Cas ->
      with_object Subc_objects.Cas_obj.model_bot (fun c _me v ->
          let* _ =
            Subc_objects.Cas_obj.compare_and_swap c ~expected:Value.Bot
              ~desired:v
          in
          Subc_objects.Cas_obj.read c)
    | Consensus_object ->
      with_object Subc_objects.Consensus_obj.model (fun c _me v ->
          Subc_objects.Consensus_obj.propose c v)
    | Strong_set_election k ->
      with_object (Subc_objects.Sse_obj.model ~k ~j:(k - 1)) (fun h me v ->
          let* w = Subc_objects.Sse_obj.propose h me in
          if w = me then Program.return v else announcement w)
  in
  ( store,
    List.mapi
      (fun me v ->
        let* () = Register.write (List.nth regs me) v in
        body me v)
      inputs )

let grouped store family ~size ~inputs =
  let groups =
    List.init
      ((List.length inputs + size - 1) / size)
      (fun g -> List.filteri (fun i _ -> i / size = g) inputs)
  in
  let store, programs =
    List.fold_left_map
      (fun store inputs -> protocol store family ~inputs)
      store groups
  in
  (store, List.concat programs)

let verdict family ~n =
  let inputs = List.init n (fun i -> Value.Int i) in
  let store, programs = protocol Store.empty family ~inputs in
  Subc_check.Valence.consensus_verdict (Config.make store programs) ~inputs
