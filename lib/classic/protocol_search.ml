open Subc_sim
open Program.Syntax
module Register = Subc_objects.Register

type decision = Own | Other

type protocol = {
  ops : int;
  indices : int array array;  (* indices.(proc).(op) = WRN index *)
  decide : decision array array;
      (* decide.(proc).(pattern) where bit i of pattern is set iff the
         i-th WRN response was non-⊥ *)
}

let rec tuples ~arity ~width =
  (* All [width]-digit numbers in base [arity], as arrays. *)
  if width = 0 then [ [||] ]
  else
    List.concat_map
      (fun rest -> List.init arity (fun d -> Array.append [| d |] rest))
      (tuples ~arity ~width:(width - 1))

let enumerate ~k ~ops =
  let index_choices = tuples ~arity:k ~width:ops in
  let patterns = 1 lsl ops in
  let decision_tables =
    List.map
      (fun t -> Array.map (fun d -> if d = 0 then Own else Other) t)
      (tuples ~arity:2 ~width:patterns)
  in
  let per_proc =
    List.concat_map
      (fun idx -> List.map (fun dec -> (idx, dec)) decision_tables)
      index_choices
  in
  List.concat_map
    (fun (i0, d0) ->
      List.map
        (fun (i1, d1) ->
          { ops; indices = [| i0; i1 |]; decide = [| d0; d1 |] })
        per_proc)
    per_proc

let describe p =
  let proc me =
    Printf.sprintf "P%d: wrn@[%s] decide[%s]" me
      (String.concat ","
         (Array.to_list (Array.map string_of_int p.indices.(me))))
      (String.concat ""
         (Array.to_list
            (Array.map (fun d -> match d with Own -> "o" | Other -> "x")
               p.decide.(me))))
  in
  proc 0 ^ " | " ^ proc 1

let program p ~wrn ~announcements ~me v =
  let* () = Register.write (List.nth announcements me) v in
  let rec steps i pattern =
    if i >= p.ops then
      match p.decide.(me).(pattern) with
      | Own -> Program.return v
      | Other -> Register.read (List.nth announcements (1 - me))
    else
      let* r =
        Subc_objects.Wrn.wrn wrn p.indices.(me).(i) (Value.Int (1000 + me))
      in
      steps (i + 1) (pattern lor (if Value.is_bot r then 0 else 1 lsl i))
  in
  steps 0 0

let solves_consensus ~k p =
  let store, wrn = Store.alloc Store.empty (Subc_objects.Wrn.model ~k) in
  let store, announcements = Store.alloc_many store 2 Register.model_bot in
  let inputs = [ Value.Int 0; Value.Int 1 ] in
  let programs =
    List.mapi (fun me v -> program p ~wrn ~announcements ~me v) inputs
  in
  let config = Config.make store programs in
  let ok final =
    let os = Subc_tasks.Task.outcomes ~inputs final in
    Result.is_ok (Subc_tasks.Task.all_decided.Subc_tasks.Task.check os)
    && Result.is_ok (Subc_tasks.Task.consensus.Subc_tasks.Task.check os)
  in
  (* Straight-line programs terminate on every schedule, so checking
     terminals is complete. *)
  Result.is_ok (Search.check_terminals config ~ok)

type census = {
  total : int;
  solving : int;
  example_solver : protocol option;
}

let census ~k ~ops () =
  let protocols = enumerate ~k ~ops in
  List.fold_left
    (fun acc p ->
      if solves_consensus ~k p then
        {
          acc with
          solving = acc.solving + 1;
          example_solver =
            (match acc.example_solver with Some _ as s -> s | None -> Some p);
        }
      else acc)
    { total = List.length protocols; solving = 0; example_solver = None }
    protocols
