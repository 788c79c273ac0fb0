open Subc_sim

type op_record = {
  proc : int;
  op : Op.t;
  result : Value.t option;
  inv : int;
  res : int;
}

(* One pass over the trace: each process's first and last operation
   event. *)
let history ~ops final trace =
  let n = Config.n_procs final in
  let inv = Array.make n (-1) and res = Array.make n (-1) in
  List.iteri
    (fun idx -> function
      | Trace.Sched e ->
        let p = e.Step.proc in
        if inv.(p) < 0 then inv.(p) <- idx;
        res.(p) <- idx
      | Trace.Crash _ | Trace.Recover _ -> ())
    trace;
  let rec records i acc =
    if i < 0 then acc
    else
      records (i - 1)
        (if inv.(i) < 0 then acc
         else
           { proc = i; op = ops i; result = Config.decision final i;
             inv = inv.(i); res = res.(i) }
           :: acc)
  in
  records (n - 1) []

(* A prefix-free byte encoding: zigzag varints, and a tag before every
   value constructor, so distinct sequences never share an encoding. *)
let rec add_varint b n =
  if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_varint b (n lsr 7)
  end

let add_int b i = add_varint b ((i lsl 1) lxor (i asr 62))

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let rec add_value b (v : Value.t) =
  match v with
  | Bot -> Buffer.add_char b 'b'
  | Unit -> Buffer.add_char b 'u'
  | Bool x -> Buffer.add_char b (if x then 't' else 'f')
  | Int i ->
    Buffer.add_char b 'i';
    add_int b i
  | Sym s ->
    Buffer.add_char b 's';
    add_string b s
  | Pair (x, y) ->
    Buffer.add_char b 'p';
    add_value b x;
    add_value b y
  | Vec vs ->
    Buffer.add_char b 'v';
    add_int b (List.length vs);
    List.iter (add_value b) vs
  | Tag (s, x) ->
    Buffer.add_char b 'g';
    add_string b s;
    add_value b x

(* Each record's proc, its result, and the dense ranks of its [inv] and
   [res] among all the history's indices.  [check] reads the indices only
   through [<], which ranking preserves, and a record's op is fixed by its
   proc within one harness. *)
let history_key h =
  let marks = Array.make (2 * List.length h) 0 in
  List.iteri
    (fun i r ->
      marks.(2 * i) <- r.inv;
      marks.((2 * i) + 1) <- r.res)
    h;
  (* Insertion sort: a history has a handful of records. *)
  for i = 1 to Array.length marks - 1 do
    let x = marks.(i) and j = ref (i - 1) in
    while !j >= 0 && marks.(!j) > x do
      marks.(!j + 1) <- marks.(!j);
      decr j
    done;
    marks.(!j + 1) <- x
  done;
  let rank x =
    let r = ref 0 and i = ref 0 in
    while marks.(!i) < x do
      if !i = 0 || marks.(!i) <> marks.(!i - 1) then incr r;
      incr i
    done;
    !r
  in
  let b = Buffer.create 32 in
  List.iter
    (fun r ->
      add_int b r.proc;
      add_int b (rank r.inv);
      add_int b (rank r.res);
      match r.result with
      | None -> Buffer.add_char b 'n'
      | Some v ->
        Buffer.add_char b 'c';
        add_value b v)
    h;
  Buffer.contents b

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

(* One domain's share of a harness check: its memo of verdicts by
   {!history_key}, and how many histories it judged. *)
type memo = { verdicts : (string, bool) Hashtbl.t; mutable histories : int }

(* Harness-level checking: explore every terminal of a one-operation-per-
   process harness and check each recorded history against the sequential
   specification.  Most terminal histories repeat one of a few distinct
   ones, so each domain checks each distinct history once; [~paranoid]
   checks every history and compares with the memo. *)
let check_harness ?(options = Search.default) store ~programs ~ops ~spec =
  Subc_obs.Span.time "linearizability.check_harness" @@ fun () ->
  let config = Config.make store programs in
  (* The first failure any domain records; it ends the search. *)
  let failure = Atomic.make None in
  let judge memo h =
    let key = history_key h in
    match Hashtbl.find_opt memo.verdicts key with
    | Some ok when options.Search.paranoid ->
      if ok <> (check ~spec h <> None) then
        failwith
          (Format.asprintf
             "@[<v>linearizability memo disagrees with a fresh check \
              (memo: %b) on:@,%a@]"
             ok pp_history h);
      ok
    | Some ok -> ok
    | None ->
      let ok = check ~spec h <> None in
      Hashtbl.add memo.verdicts key ok;
      ok
  in
  let f memo final trace =
    if Option.is_none (Atomic.get failure) then begin
      memo.histories <- memo.histories + 1;
      let h = history ~ops final trace in
      if not (judge memo h) then begin
        ignore (Atomic.compare_and_set failure None (Some (h, trace)));
        raise Search.Stop
      end
    end;
    memo
  in
  let memo, stats =
    Search.fold_terminals ~options config
      ~init:(fun () -> { verdicts = Hashtbl.create 256; histories = 0 })
      ~f
      ~merge:(fun a b ->
        a.histories <- a.histories + b.histories;
        a)
  in
  let histories = memo.histories in
  match Atomic.get failure with
  | Some (h, trace) ->
    Verdict.refuted ~explore:stats ~trace
      (Format.asprintf "@[<v>non-linearizable history:@,%a@]" pp_history h)
  | None when stats.Explore.limited ->
    Verdict.limited ~explore:stats
      ~metrics:[ ("histories", float_of_int histories) ]
      "exploration truncated — not every history checked"
  | None ->
    Verdict.proved ~explore:stats
      ~metrics:[ ("histories", float_of_int histories) ]
      (Printf.sprintf "all %d terminal histories linearizable%s" histories
         (if options.Search.max_crashes > 0 then
            Printf.sprintf " (crash budget %d)" options.Search.max_crashes
          else ""))
