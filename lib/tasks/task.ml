open Subc_sim

type outcome = { proc : int; input : Value.t; output : Value.t option }
type t = {
  name : string;
  check : outcome list -> (unit, string Lazy.t) result;
}

let outcomes ~inputs config =
  List.mapi
    (fun proc input -> { proc; input; output = Config.decision config proc })
    inputs

let decided os = List.filter_map (fun o -> o.output) os

let distinct vs =
  List.fold_left
    (fun acc v -> if List.exists (Value.equal v) acc then acc else acc @ [ v ])
    [] vs

let satisfies task ~inputs config =
  Result.is_ok (task.check (outcomes ~inputs config))

let explain task ~inputs config =
  match task.check (outcomes ~inputs config) with
  | Ok () -> None
  | Error reason -> Some (Lazy.force reason)

(* A violation's reason is formatted only when read ([explain]): most
   callers test [Result.is_ok] alone. *)
let validity os =
  let inputs = List.map (fun o -> o.input) os in
  match
    List.find_opt
      (fun v -> not (List.exists (Value.equal v) inputs))
      (decided os)
  with
  | None -> Ok ()
  | Some v ->
    Error
      (lazy (Format.asprintf "validity: output %a is nobody's input" Value.pp v))

let k_agreement k os =
  let d = distinct (decided os) in
  if List.length d <= k then Ok ()
  else
    Error
      (lazy
        (Format.asprintf "%d-agreement: %d distinct outputs: %a" k
           (List.length d) Value.pp (Value.Vec d)))

let ( &&& ) a b = match a with Ok () -> b | Error _ as e -> e

let set_consensus k =
  {
    name = Printf.sprintf "%d-set-consensus" k;
    check = (fun os -> validity os &&& k_agreement k os);
  }

let consensus = { (set_consensus 1) with name = "consensus" }

(* In election tasks each process's input is its own identifier; the checks
   are the same — validity just means "output is a participant". *)
let set_election k = { (set_consensus k) with name = Printf.sprintf "%d-set-election" k }
let election = { (set_consensus 1) with name = "election" }

let self_election os =
  let violating o =
    match o.output with
    | Some out when not (Value.equal out o.input) -> (
      (* Someone decided on [out]; the process whose identifier is [out]
         must decide on itself (if it decided at all). *)
      match List.find_opt (fun o' -> Value.equal o'.input out) os with
      | Some { output = Some out'; _ } when not (Value.equal out' out) -> true
      | Some _ | None -> false)
    | Some _ | None -> false
  in
  match List.find_opt violating os with
  | None -> Ok ()
  | Some o ->
    Error
      (lazy
        (Format.asprintf
           "self-election: P%d decided %a but that process decided otherwise"
           o.proc Value.pp (Option.get o.output)))

let strong_set_election k =
  let base = set_election k in
  {
    name = Printf.sprintf "%d-strong-set-election" k;
    check = (fun os -> base.check os &&& self_election os);
  }

let renaming ~bound =
  {
    name = Printf.sprintf "renaming<%d" bound;
    check =
      (fun os ->
        let names = decided os in
        let in_range = function
          | Value.Int n -> 0 <= n && n < bound
          | _ -> false
        in
        match List.find_opt (fun v -> not (in_range v)) names with
        | Some v ->
          Error
            (lazy
              (Format.asprintf "renaming: name %a out of [0,%d)" Value.pp v
                 bound))
        | None ->
          if List.length (distinct names) = List.length names then Ok ()
          else
            Error
              (lazy
                (Format.asprintf "renaming: duplicate names: %a" Value.pp
                   (Value.Vec names))));
  }

let all_decided =
  {
    name = "all-decided";
    check =
      (fun os ->
        match List.find_opt (fun o -> o.output = None) os with
        | None -> Ok ()
        | Some o ->
          Error (lazy (Printf.sprintf "process P%d never decided" o.proc)));
  }

let conj t1 t2 =
  {
    name = t1.name ^ " & " ^ t2.name;
    check = (fun os -> t1.check os &&& t2.check os);
  }
