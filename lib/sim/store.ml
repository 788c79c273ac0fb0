module Imap = Map.Make (Int)

type handle = int

type t = { next : int; objs : (Obj_model.t * Value.t) Imap.t }

let empty = { next = 0; objs = Imap.empty }

let alloc store model =
  let h = store.next in
  ( { next = h + 1; objs = Imap.add h (model, model.Obj_model.init) store.objs },
    h )

let alloc_many store n model =
  let rec loop store acc n =
    if n = 0 then (store, List.rev acc)
    else
      let store, h = alloc store model in
      loop store (h :: acc) (n - 1)
  in
  loop store [] n

let find store h =
  match Imap.find_opt h store.objs with
  | Some entry -> entry
  | None -> invalid_arg (Printf.sprintf "Store: unknown handle %d" h)

let state store h = snd (find store h)
let kind store h = (fst (find store h)).Obj_model.kind
let model store h = fst (find store h)

let apply store h op =
  let model, st = find store h in
  let successors = model.Obj_model.apply st op in
  List.map
    (fun (st', resp) ->
      ({ store with objs = Imap.add h (model, st') store.objs }, resp))
    successors

let set store h v =
  let model, _ = find store h in
  { store with objs = Imap.add h (model, v) store.objs }

(* Slot-level diff for the incremental fingerprint/delta layer.  Both
   stores must carry the same handle set (they are always a configuration
   and its successor, which never allocates).  Physical equality prunes:
   identical stores diff to [] without traversal, and slots whose states
   are physically shared (the common case — [apply] touches one handle,
   [recover] returns untouched persistent states as-is) are skipped.  A
   structurally-equal-but-physically-distinct state would yield a
   redundant patch, which is harmless: equal contents mix to equal
   fingerprint contributions. *)
let diff old_store new_store =
  if old_store == new_store || old_store.objs == new_store.objs then []
  else
    List.fold_right2
      (fun (h, (_, st_old)) (h', (_, st_new)) acc ->
        if h <> h' then invalid_arg "Store.diff: different handle sets"
        else if st_old == st_new then acc
        else (h', st_new) :: acc)
      (Imap.bindings old_store.objs)
      (Imap.bindings new_store.objs)
      []

(* Recovery projection of the whole store: each object's state through its
   model's [persist].  Fully persistent stores (every [persist] is [None],
   the default) are returned physically unchanged, so crash-only
   explorations pay nothing for the recovery machinery.

   Per-slot physical sharing is preserved whenever the projection is a
   fixed point — [persist] rebuilding a structurally equal value must not
   break the [==] pruning in [diff], or every recovery link of a
   [Config.Delta] chain would carry the whole store instead of the
   slots the crash actually erased.  The [Value.equal] check restores
   sharing that a rebuilding [persist] lost; it runs only on the
   recovery path of stores with at least one volatile object. *)
let recover store =
  if
    Imap.for_all (fun _ (model, _) -> Obj_model.all_persistent model) store.objs
  then store
  else
    {
      store with
      objs =
        Imap.map
          (fun (model, st) ->
            let st' = Obj_model.persist_state model st in
            if st' == st || Value.equal st' st then (model, st)
            else (model, st'))
          store.objs;
    }

let contents store =
  List.map (fun (h, (_, st)) -> (h, st)) (Imap.bindings store.objs)

let iter store f = Imap.iter (fun h (_, st) -> f h st) store.objs
let cardinal store = Imap.cardinal store.objs

let states store =
  let a = Array.make (Imap.cardinal store.objs) Value.Bot in
  ignore
    (Imap.fold
       (fun _ (_, st) i ->
         a.(i) <- st;
         i + 1)
       store.objs 0);
  a

let pp ppf store =
  Imap.iter
    (fun h (model, st) ->
      Format.fprintf ppf "#%d:%s = %a@." h model.Obj_model.kind Value.pp st)
    store.objs
