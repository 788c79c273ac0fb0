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

let all_families =
  [
    Register; Wrn 3; Strong_set_election 3; Swap; Wrn 2; Test_and_set;
    Fetch_and_add; Queue; Cas; Consensus_object;
  ]

let known_consensus_number = function
  | Register | Wrn _ -> Some 1  (* WRN₂ is the exception, handled below *)
  | Swap | Test_and_set | Fetch_and_add | Queue -> Some 2
  | Strong_set_election _ -> Some 1
  | Cas | Consensus_object -> None

let known_consensus_number = function
  | Wrn 2 -> Some 2
  | f -> known_consensus_number f

(* Announce registers: every protocol first publishes its proposal. *)
let with_announcements store n body =
  let store, regs = Store.alloc_many store n Register.model_bot in
  let program me v =
    let* () = Register.write (List.nth regs me) v in
    body regs me v
  in
  (store, program)

let read_announcement regs who = Register.read (List.nth regs who)

(* The canonical protocol per family.  "first wins" objects let the winner
   decide its own value and losers look up the winner's announcement when
   they can identify the winner; where the object does not reveal the
   winner (test-and-set, fetch-and-add, queue with n ≥ 3), losers adopt
   the minimum announcement they can see — the natural (and for n ≥ 3
   doomed) generalization. *)
let protocol store family ~n =
  let values = List.init n (fun i -> Value.Int i) in
  let min_announced regs me v =
    let* seen = Program.map_list Register.read regs in
    let candidates = List.filter (fun c -> not (Value.is_bot c)) seen in
    ignore me;
    Program.return
      (List.fold_left
         (fun acc c -> if Value.compare c acc < 0 then c else acc)
         v candidates)
  in
  let store, program =
    match family with
    | Register ->
      with_announcements store n min_announced
    | Wrn k ->
      (* The Algorithm-2 mirror: write-and-read-next on your own index and
         adopt what you read.  For k = n = 2 this is the swap protocol. *)
      let store, w = Store.alloc store (Subc_objects.Wrn.model ~k) in
      ( store,
        fun me v ->
          let* r = Subc_objects.Wrn.wrn w (me mod k) v in
          Program.return (if Value.is_bot r then v else r) )
    | Swap ->
      let store, s = Store.alloc store Subc_objects.Swap_obj.model_bot in
      with_announcements store n (fun regs me v ->
          let* prev = Subc_objects.Swap_obj.swap s (Value.Int me) in
          match prev with
          | Value.Bot -> Program.return v
          | Value.Int who -> read_announcement regs who
          | _ -> assert false)
    | Test_and_set ->
      let store, b = Store.alloc store Subc_objects.Tas_obj.model in
      with_announcements store n (fun regs me v ->
          let* already = Subc_objects.Tas_obj.test_and_set b in
          if not already then Program.return v
          else if n = 2 then read_announcement regs (1 - me)
          else min_announced regs me v)
    | Fetch_and_add ->
      let store, f = Store.alloc store Subc_objects.Faa_obj.model in
      with_announcements store n (fun regs me v ->
          let* rank = Subc_objects.Faa_obj.fetch_and_add f 1 in
          if rank = 0 then Program.return v
          else if n = 2 then read_announcement regs (1 - me)
          else min_announced regs me v)
    | Queue ->
      let store, q =
        Store.alloc store (Subc_objects.Queue_obj.model [ Value.Sym "win" ])
      in
      with_announcements store n (fun regs me v ->
          let* tok = Subc_objects.Queue_obj.dequeue q in
          if Value.equal tok (Value.Sym "win") then Program.return v
          else if n = 2 then read_announcement regs (1 - me)
          else min_announced regs me v)
    | Cas ->
      let store, c = Store.alloc store Subc_objects.Cas_obj.model_bot in
      let program _me v =
        let* _ =
          Subc_objects.Cas_obj.compare_and_swap c ~expected:Value.Bot ~desired:v
        in
        Subc_objects.Cas_obj.read c
      in
      (store, fun me v -> program me v)
    | Consensus_object ->
      let store, c = Store.alloc store Subc_objects.Consensus_obj.model in
      (store, fun _me v -> Subc_objects.Consensus_obj.propose c v)
    | Strong_set_election k ->
      let store, h = Store.alloc store (Subc_objects.Sse_obj.model ~k ~j:(k - 1)) in
      with_announcements store n (fun regs me v ->
          let* w = Subc_objects.Sse_obj.propose h me in
          if w = me then Program.return v else read_announcement regs w)
  in
  (store, List.mapi program values)

let verdict family ~n =
  let store, programs = protocol Store.empty family ~n in
  Subc_check.Valence.consensus_verdict
    (Config.make store programs)
    ~inputs:(List.init n (fun i -> Value.Int i))
