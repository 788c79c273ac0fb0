open Subc_sim

type op_record = {
  proc : int;
  op : Op.t;
  result : Value.t option;
  inv : int;
  res : int;
}

let history ~ops final trace =
  let n = Config.n_procs final in
  List.concat
    (List.init n (fun i ->
         match (Trace.first_step trace i, Trace.last_step trace i) with
         | Some inv, Some res ->
           [ { proc = i; op = ops i; result = Config.decision final i; inv; res } ]
         | _ -> []))

let pp_record ppf r =
  Format.fprintf ppf "P%d %a -> %s [%d,%d]" r.proc Op.pp r.op
    (match r.result with Some v -> Value.to_string v | None -> "incomplete")
    r.inv r.res

let pp_history ppf h =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_record)
    h

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Canonical key of a search node: which operations are linearized (by
   index) plus the specification state. *)
let node_key linearized state =
  Value.Pair
    (Value.Vec (List.map (fun b -> Value.Bool b) (Array.to_list linearized)),
     state)

let check ~spec history =
  let ops = Array.of_list history in
  let n = Array.length ops in
  let completed i = ops.(i).result <> None in
  let linearized = Array.make n false in
  let dead = Vtbl.create 64 in
  (* [minimal i]: no unlinearized completed op finished before op [i]
     started. *)
  let minimal i =
    let ok = ref true in
    for j = 0 to n - 1 do
      if (not linearized.(j)) && j <> i && completed j
         && ops.(j).res < ops.(i).inv
      then ok := false
    done;
    !ok
  in
  let all_completed_done () =
    let ok = ref true in
    for j = 0 to n - 1 do
      if (not linearized.(j)) && completed j then ok := false
    done;
    !ok
  in
  let rec search state acc =
    if all_completed_done () then Some (List.rev acc)
    else
      let key = node_key linearized state in
      if Vtbl.mem dead key then None
      else begin
        let result = try_candidates state acc 0 in
        if result = None then Vtbl.add dead key ();
        result
      end
  and try_candidates state acc i =
    if i >= n then None
    else if linearized.(i) || not (minimal i) then
      try_candidates state acc (i + 1)
    else
      let successors = spec.Obj_model.apply state ops.(i).op in
      let matching =
        match ops.(i).result with
        | Some r ->
          List.filter (fun (_, resp) -> Value.equal resp r) successors
        | None -> successors
      in
      let rec attempt = function
        | [] -> try_candidates state acc (i + 1)
        | (state', _) :: rest -> (
          linearized.(i) <- true;
          let r = search state' (ops.(i) :: acc) in
          linearized.(i) <- false;
          match r with Some _ -> r | None -> attempt rest)
      in
      attempt matching
  in
  search spec.Obj_model.init []

(* Harness-level checking: explore every terminal of a one-operation-per-
   process harness and check each recorded history against the sequential
   specification.  This is the loop the CLI and bench previously inlined. *)
let check_harness ?(options = Search.default) store ~programs ~ops ~spec =
  Subc_obs.Span.time "linearizability.check_harness" @@ fun () ->
  let config = Config.make store programs in
  let failure = ref None in
  let histories = ref 0 in
  (* The terminal callback is serialized at any [jobs] ([Parallel] holds
     the callback lock once helpers run), so the two refs need no extra
     locking.  The first failure ends the search. *)
  let on_terminal final trace =
    if !failure = None then begin
      incr histories;
      let h = history ~ops final trace in
      if check ~spec h = None then begin
        failure := Some (h, trace);
        raise Search.Stop
      end
    end
  in
  let stats = Search.iter_terminals ~options config ~f:on_terminal in
  match !failure with
  | Some (h, trace) ->
    Verdict.refuted ~explore:stats ~trace
      (Format.asprintf "@[<v>non-linearizable history:@,%a@]" pp_history h)
  | None when stats.Explore.limited ->
    Verdict.limited ~explore:stats
      ~metrics:[ ("histories", float_of_int !histories) ]
      "exploration truncated — not every history checked"
  | None ->
    Verdict.proved ~explore:stats
      ~metrics:[ ("histories", float_of_int !histories) ]
      (Printf.sprintf "all %d terminal histories linearizable%s" !histories
         (if options.Search.max_crashes > 0 then
            Printf.sprintf " (crash budget %d)" options.Search.max_crashes
          else ""))
