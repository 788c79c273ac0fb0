open Subc_sim

type property =
  | Task of { inputs : Value.t list; task : Subc_tasks.Task.t }
  | Other of string

type t = {
  store : Store.t;
  programs : Value.t Program.t list;
  symmetry : Symmetry.t option;
  property : property;
  explain : Config.t -> string option;
  checker : Search.options -> Verdict.t;
}

let tok j = Value.Int (100 + j)
let inputs n = List.init n tok
let root h = Config.make h.store h.programs

let task ~symmetry store programs ~inputs ~task =
  {
    store;
    programs;
    symmetry;
    property = Task { inputs; task };
    explain = Subc_tasks.Task.explain task ~inputs;
    checker =
      (fun options -> Task_check.check ~options store ~programs ~inputs ~task);
  }

let wrn ~k ~symmetry store programs =
  let ops i = Op.make "wrn" [ Value.Int i; tok i ] in
  let spec = Subc_objects.One_shot_wrn.model ~k in
  (* Terminals share few response vectors, so each is judged once. *)
  let judged = Hashtbl.create 16 in
  let explain c =
    let responses = List.init (Config.n_procs c) (Config.decision c) in
    if not (Hashtbl.mem judged responses) then begin
      let op i result =
        { Linearizability.proc = i; op = ops i; result; inv = 0; res = 0 }
      in
      Hashtbl.add judged responses
        (if Linearizability.check ~spec (List.mapi op responses) = None then
           Some "no sequential order of the operations gives the responses"
         else None)
    end;
    Hashtbl.find judged responses
  in
  {
    store;
    programs;
    symmetry = Some symmetry;
    property = Other "linearizable";
    explain;
    checker =
      (fun options ->
        Linearizability.check_harness ~options store ~programs ~ops ~spec);
  }

let terminating ~symmetry store programs =
  {
    store;
    programs;
    symmetry;
    property = Other "terminating";
    explain =
      (fun c -> if Config.any_hung c then Some "a process hangs" else None);
    checker =
      (fun options ->
        Progress.check_t_resilient ~options ~t:options.Search.max_crashes store
          ~programs);
  }
