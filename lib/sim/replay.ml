type error = { at : int; reason : string }

(* The configurations [event] can lead to from [config].  A step may
   match several successors: an object whose nondeterminism gives the
   same response from different states leaves the recorded event unable
   to tell them apart. *)
let successors config = function
  | Trace.Sched event -> (
    match Step.step config event.Step.proc with
    | exception Invalid_argument reason -> Error reason
    | successors -> (
      let matches (_, (e : Step.event)) =
        Op.equal e.Step.op event.Step.op
        && e.Step.obj = event.Step.obj
        && e.Step.resp = event.Step.resp
      in
      Ok (List.map fst (List.filter matches successors))))
  | Trace.Crash i -> (
    match Config.crash config i with
    | config' -> Ok [ config' ]
    | exception Invalid_argument reason -> Error reason)
  | Trace.Recover i -> (
    match Config.recover config i with
    | config' -> Ok [ config' ]
    | exception Invalid_argument reason -> Error reason)

(* Depth-first over the matching successors: the first branch that
   replays the whole trace wins, else the deepest failure is reported. *)
let replay config trace =
  let rec go config acc at = function
    | [] -> Ok (List.rev acc)
    | event :: rest -> (
      match successors config event with
      | Error reason -> Error { at; reason }
      | Ok matching ->
        let rec first deepest = function
          | [] -> Error deepest
          | c :: cs -> (
            match go c (c :: acc) (at + 1) rest with
            | Ok _ as ok -> ok
            | Error e -> first (if e.at > deepest.at then e else deepest) cs)
        in
        first { at; reason = "no successor matches the recorded event" } matching)
  in
  go config [] 0 trace

let final config trace =
  match replay config trace with
  | Ok [] -> Ok config
  | Ok configs -> Ok (List.nth configs (List.length configs - 1))
  | Error e -> Error e

let pp_annotated ppf (config, trace) =
  match replay config trace with
  | Error { at; reason } ->
    Format.fprintf ppf "replay failed at event %d: %s" at reason
  | Ok configs ->
    Format.fprintf ppf "@[<v>";
    List.iteri
      (fun i (event, config') ->
        Format.fprintf ppf "%3d. %a@,%a" i Trace.pp_event event Store.pp
          config'.Config.store)
      (List.combine trace configs);
    Format.fprintf ppf "@]"
