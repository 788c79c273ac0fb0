type event = Sched of Step.event | Crash of int | Recover of int
type t = event list

let empty = []
let length = List.length
let sched e = Sched e

let ops t =
  List.filter_map
    (function Sched e -> Some e | Crash _ | Recover _ -> None)
    t

let crashes t =
  List.filter_map
    (function Crash i -> Some i | Sched _ | Recover _ -> None)
    t

let recoveries t =
  List.filter_map
    (function Recover i -> Some i | Sched _ | Crash _ -> None)
    t

let events_of t i =
  List.filter (fun (e : Step.event) -> e.Step.proc = i) (ops t)

let indexed t = List.mapi (fun idx e -> (idx, e)) t

let first_step t i =
  List.find_map
    (fun (idx, ev) ->
      match ev with
      | Sched e when e.Step.proc = i -> Some idx
      | Sched _ | Crash _ | Recover _ -> None)
    (indexed t)

let last_step t i =
  List.fold_left
    (fun acc (idx, ev) ->
      match ev with
      | Sched e when e.Step.proc = i -> Some idx
      | Sched _ | Crash _ | Recover _ -> acc)
    None (indexed t)

let schedule t = List.map (fun (e : Step.event) -> e.Step.proc) (ops t)

let pp_event ppf = function
  | Sched e -> Step.pp_event ppf e
  | Crash i -> Format.fprintf ppf "P%d: CRASH" i
  | Recover i -> Format.fprintf ppf "P%d: RECOVER" i

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun idx e -> Format.fprintf ppf "%3d. %a@," idx pp_event e)
    t;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

let pp_diagram ~n_procs ppf t =
  let width = 26 in
  (* Pad by codepoints, not bytes: responses routinely contain ⊥. *)
  let display_len s =
    String.fold_left
      (fun acc c -> if Char.code c land 0xC0 <> 0x80 then acc + 1 else acc)
      0 s
  in
  let pad s =
    let len = display_len s in
    if len >= width then s else s ^ String.make (width - len) ' '
  in
  let header =
    String.concat " | "
      (List.init n_procs (fun i -> pad (Printf.sprintf "P%d" i)))
  in
  Format.fprintf ppf "%s@." header;
  Format.fprintf ppf "%s@."
    (String.concat "-+-" (List.init n_procs (fun _ -> String.make width '-')));
  List.iter
    (fun ev ->
      let proc, cell =
        match ev with
        | Sched e ->
          let cell =
            match e.Step.resp with
            | Some r ->
              Printf.sprintf "%s->%s" (Op.to_string e.Step.op)
                (Value.to_string r)
            | None -> Printf.sprintf "%s->HANG" (Op.to_string e.Step.op)
          in
          (e.Step.proc, cell)
        | Crash i -> (i, "CRASH ††")
        | Recover i -> (i, "RECOVER ↺")
      in
      let row =
        String.concat " | "
          (List.init n_procs (fun i -> pad (if i = proc then cell else "")))
      in
      Format.fprintf ppf "%s@." row)
    t
