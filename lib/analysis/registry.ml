open Subc_sim
module O = Subc_objects
module C = Subc_core
module Harness = Subc_check.Harness
module Task = Subc_tasks.Task

type entry = {
  family : string;
  doc : string;
  subjects : Subject.t list;
  harness : (n:int -> k:int -> crashes:int -> Harness.t) option;
  protocols : unit -> Absint.protocol list;
}

(* Subjects use the harness proposal convention, two or three processes
   per instance. *)
let tok = Harness.tok
let op = Op.make
let toks = Harness.inputs

(* The full symmetric group acting on proposal tokens only — for objects
   with scalar states and no process-indexed structure (registers, CAS,
   swap, consensus cells). *)
let value_full n = Symmetry.standard ~n ~input_base:100 ~map_ids:false `Full

(* The standard harness action: process ids and proposals both renamed. *)
let harness n grp = Symmetry.standard ~n ~input_base:100 grp

let register ?(name = "register") ?(group = `Scalar) () =
  let symmetry =
    match group with
    | `Scalar -> value_full 2
    | `Rotations n -> harness n `Rotations
    | `Trivial -> Symmetry.trivial ~n:1
  in
  Subject.make ~name ~model:O.Register.model_bot
    ~alphabet:[ op "read" []; op "write" [ tok 0 ]; op "write" [ tok 1 ] ]
    ~expected:Subject.Deterministic ~symmetry
    ~value_oblivious:true ~values:(toks 2) ()

let doorway ~n =
  let opened = Value.Sym "opened" and closed = Value.Sym "closed" in
  Subject.make ~name:"doorway-register"
    ~model:(O.Register.model opened)
    ~alphabet:[ op "read" []; op "write" [ opened ]; op "write" [ closed ] ]
    ~expected:Subject.Deterministic ~symmetry:(harness n `Rotations)
    ~value_oblivious:true ~values:[ opened; closed ] ()

let cas =
  Subject.make ~name:"cas" ~model:O.Cas_obj.model_bot
    ~alphabet:
      [
        op "read" [];
        op "cas" [ Value.Bot; tok 0 ];
        op "cas" [ Value.Bot; tok 1 ];
        op "cas" [ tok 0; tok 1 ];
        op "cas" [ tok 1; tok 0 ];
      ]
    ~expected:Subject.Deterministic ~symmetry:(value_full 2)
    ~value_oblivious:true ~values:(toks 2) ()

let tas =
  Subject.make ~name:"test_and_set" ~model:O.Tas_obj.model
    ~alphabet:[ op "test_and_set" []; op "read" [] ]
    ~expected:Subject.Deterministic ()

let swap =
  Subject.make ~name:"swap" ~model:O.Swap_obj.model_bot
    ~alphabet:[ op "read" []; op "swap" [ tok 0 ]; op "swap" [ tok 1 ] ]
    ~expected:Subject.Deterministic ~symmetry:(value_full 2)
    ~value_oblivious:true ~values:(toks 2) ()

let counter ~ops =
  Subject.make ~name:"counter" ~model:O.Counter_obj.model
    ~alphabet:[ op "inc" []; op "read" [] ]
    ~expected:Subject.Deterministic ~bound:(Subject.Ops ops) ()

let faa ~ops =
  Subject.make ~name:"fetch_and_add" ~model:O.Faa_obj.model
    ~alphabet:[ op "faa" [ Value.Int 1 ]; op "faa" [ Value.Int 2 ]; op "read" [] ]
    ~expected:Subject.Deterministic ~bound:(Subject.Ops ops) ()

let queue ~ops =
  let a = Value.Sym "a" and b = Value.Sym "b" in
  Subject.make ~name:"queue"
    ~model:(O.Queue_obj.model [])
    ~alphabet:[ op "enq" [ a ]; op "enq" [ b ]; op "deq" [] ]
    ~expected:Subject.Deterministic ~bound:(Subject.Ops ops)
    ~value_oblivious:true ~values:[ a; b ] ()

let consensus =
  Subject.make ~name:"consensus" ~model:O.Consensus_obj.model
    ~alphabet:[ op "propose" [ tok 0 ]; op "propose" [ tok 1 ] ]
    ~expected:Subject.Deterministic ~symmetry:(value_full 2)
    ~value_oblivious:true ~values:(toks 2) ()

let snapshot ?(name = "snapshot") ~n (grp : [ `Full | `Rotations ]) =
  let grp = (grp :> [ `Full | `Rotations | `Trivial ]) in
  Subject.make ~name
    ~model:(O.Snapshot_obj.model ~n)
    ~alphabet:
      (op "scan" []
      :: List.concat_map
           (fun i -> List.map (fun j -> op "update" [ Value.Int i; tok j ]) (List.init n Fun.id))
           (List.init n Fun.id))
    ~expected:Subject.Deterministic ~symmetry:(harness n grp)
    ~value_oblivious:true ~values:(toks n) ()

let wrn_alphabet k =
  List.concat_map
    (fun i -> List.map (fun j -> op "wrn" [ Value.Int i; tok j ]) (List.init k Fun.id))
    (List.init k Fun.id)

(* The rotation group, or the identity with erasure. *)
let ring_symmetry ~k = function
  | `Rotations -> harness k `Rotations
  | `Trivial -> Symmetry.erasure_only ~n:k

let wrn ?(name = "wrn") ~k grp =
  Subject.make ~name ~model:(O.Wrn.model ~k) ~alphabet:(wrn_alphabet k)
    ~expected:Subject.Deterministic ~symmetry:(ring_symmetry ~k grp)
    ~value_oblivious:true ~values:(toks k) ()

let one_shot_wrn ?(name = "one_shot_wrn") ~k grp =
  Subject.make ~name
    ~model:(O.One_shot_wrn.model ~k)
    ~alphabet:(wrn_alphabet k) ~expected:Subject.Deterministic ~may_hang:true
    ~symmetry:(ring_symmetry ~k grp) ~value_oblivious:true ~values:(toks k) ()

let set_consensus ~n ~k =
  Subject.make ~name:"set_consensus"
    ~model:(O.Set_consensus_obj.model ~n ~k)
    ~alphabet:(List.map (fun i -> op "propose" [ tok i ]) (List.init n Fun.id))
    ~expected:Subject.Nondeterministic ~may_hang:true ~symmetry:(harness n `Full)
    ~value_oblivious:true ~values:(toks n) ()

let sse ~k ~j grp =
  Subject.make ~name:"strong_set_election"
    ~model:(O.Sse_obj.model ~k ~j)
    ~alphabet:(List.map (fun i -> op "propose" [ Value.Int i ]) (List.init k Fun.id))
    ~expected:Subject.Nondeterministic ~may_hang:true
    ~symmetry:(Symmetry.standard ~n:k grp) ()

(* ------------------------------------------------------------------ *)
(* The family table: each family's checked instance, built at a size.
   Where callers need different instances of one family, the difference
   is a parameter of its builder. *)

(* m-set consensus; every process decides, unless the crash budget lets
   some crash. *)
let set_consensus_task m ~crashes =
  if crashes > 0 then Task.set_consensus m
  else Task.conj (Task.set_consensus m) Task.all_decided

let alg2 ~k ~crashes =
  let store, t = C.Alg2.alloc Store.empty ~k ~one_shot:true in
  Harness.task store
    (List.mapi (fun i v -> C.Alg2.propose t ~i v) (toks k))
    ~symmetry:(Some (C.Alg2.symmetry t ~input_base:100 ()))
    ~inputs:(toks k)
    ~task:(set_consensus_task (k - 1) ~crashes)

let alg3 ~flavor ~renamer ~ids ~crashes =
  let k = List.length ids in
  let store, t = C.Alg3.alloc Store.empty ~k ~flavor ~renamer () in
  let input id = Value.Int (1000 + id) in
  Harness.task store
    (List.mapi (fun slot id -> C.Alg3.propose t ~slot ~id (input id)) ids)
    ~symmetry:(Some (Symmetry.erasure_only ~n:k))
    ~inputs:(List.map input ids)
    ~task:(set_consensus_task (k - 1) ~crashes)

let alg4 ~k =
  let store, t = C.Alg4.alloc Store.empty ~k in
  Harness.terminating store
    (List.init k (fun i -> C.Alg4.rlx_wrn t ~i (tok i)))
    ~symmetry:(Some (Symmetry.erasure_only ~n:k))

let alg5 ~k =
  let store, t = C.Alg5.alloc Store.empty ~k () in
  Harness.wrn ~k store
    (List.init k (fun i -> C.Alg5.wrn t ~i (tok i)))
    ~symmetry:(C.Alg5.symmetry t ~input_base:100 ())

let alg6 ~n ~k ~crashes =
  let store, t = C.Alg6.alloc Store.empty ~n ~k ~one_shot:true in
  Harness.task store
    (List.mapi (fun i v -> C.Alg6.propose t ~i v) (toks n))
    ~symmetry:(Some (Symmetry.erasure_only ~n))
    ~inputs:(toks n)
    ~task:(set_consensus_task (C.Alg6.agreement_bound ~n ~k) ~crashes)

let one_shot_wrn_object ~k =
  let store, h = Store.alloc Store.empty (O.One_shot_wrn.model ~k) in
  Harness.wrn ~k store
    (List.init k (fun i -> O.One_shot_wrn.wrn h i (tok i)))
    ~symmetry:(harness k `Rotations)

let set_consensus_object ~n ~k ~crashes =
  let store, h = Store.alloc Store.empty (O.Set_consensus_obj.model ~n ~k) in
  Harness.task store
    (List.init n (fun i -> O.Set_consensus_obj.propose h (tok i)))
    ~symmetry:(Some (harness n `Full))
    ~inputs:(toks n)
    ~task:(set_consensus_task k ~crashes)

(* ------------------------------------------------------------------ *)
(* Protocol exemplars: one checkable program per process for each
   family, fed to the abstract interpreter ([Absint]) by the
   [analyze --lint] gate.  Instance sizes match the subjects above, so
   every op a protocol issues falls inside a declared alphabet.  A
   family's exemplar is its checked instance at that size where the two
   are one program. *)

let protocol = Absint.protocol

let exemplars family call (h : Harness.t) =
  List.mapi
    (fun i p ->
      protocol ~name:(Printf.sprintf "%s.%s%d" family call i) ~store:h.store p)
    h.programs

let alg3_protocols () =
  let store, t =
    C.Alg3.alloc Store.empty ~k:2 ~flavor:C.Alg3.Plain_wrn
      ~renamer:(C.Alg3.Rename_identity 2) ()
  in
  List.init 2 (fun i ->
      protocol
        ~name:(Printf.sprintf "alg3.propose%d" i)
        ~store
        (C.Alg3.propose t ~slot:i ~id:i (tok i)))

(* A checkpointed busy-wait in the blessed shape — tail position, the key
   is the entire remaining computation — plus a straight-line sweep over
   the read-modify-write objects: between them the lint pass sees every
   node kind the DSL has. *)
let objects_protocols () =
  let store, w = Store.alloc Store.empty (O.Wrn.model ~k:3) in
  let store, c = Store.alloc store O.Cas_obj.model_bot in
  let store, t = Store.alloc store O.Tas_obj.model in
  let store, r = Store.alloc store O.Register.model_bot in
  let open Program.Syntax in
  let rec retry () =
    let* () = Program.checkpoint (Value.Sym "busy-wait") in
    let* v = O.Wrn.wrn w 0 (tok 0) in
    if Value.is_bot v then retry () else Program.return v
  in
  let sweep =
    let* _ = Program.invoke c (op "cas" [ Value.Bot; tok 0 ]) in
    let* _ = Program.invoke t (op "test_and_set" []) in
    let* _ = Program.invoke r (op "write" [ tok 1 ]) in
    Program.invoke r (op "read" [])
  in
  [
    protocol ~name:"objects.busy-wait" ~store (retry ());
    protocol ~name:"objects.rmw-sweep" ~store sweep;
  ]

(* The per-kind environment the abstract interpreter closes object pools
   under: the union of the declared alphabets of every subject of that
   kind, with the op budget of budgeted subjects bounding the closure of
   unbounded objects. *)
let declared_alphabets subjects =
  let module OS = Set.Make (Op) in
  let kinds =
    List.fold_left
      (fun acc (s : Subject.t) ->
        let kind = s.Subject.model.Obj_model.kind in
        if List.mem kind acc then acc else acc @ [ kind ])
      [] subjects
  in
  List.map
    (fun kind ->
      let of_kind =
        List.filter
          (fun (s : Subject.t) -> s.Subject.model.Obj_model.kind = kind)
          subjects
      in
      let ops =
        OS.elements
          (List.fold_left
             (fun acc (s : Subject.t) ->
               OS.union acc (OS.of_list s.Subject.alphabet))
             OS.empty of_kind)
      in
      let depth =
        List.fold_left
          (fun acc (s : Subject.t) ->
            match (acc, s.Subject.bound) with
            | None, _ | _, Subject.Closure -> None
            | Some d, Subject.Ops d' -> Some (max d d'))
          (match (List.hd of_kind).Subject.bound with
          | Subject.Closure -> None
          | Subject.Ops d -> Some d)
          of_kind
      in
      Absint.decl ?depth ~kind ops)
    kinds

let entries () =
  [
    {
      family = "objects";
      doc =
        "every sequential model in lib/objects, under the strongest group \
         its users declare";
      subjects =
        [
          register ();
          cas;
          tas;
          swap;
          counter ~ops:4;
          faa ~ops:3;
          queue ~ops:4;
          consensus;
          snapshot ~n:3 `Full;
          wrn ~k:3 `Rotations;
          one_shot_wrn ~k:3 `Rotations;
          set_consensus ~n:3 ~k:2;
          sse ~k:3 ~j:2 `Full;
        ];
      harness = None;
      protocols = objects_protocols;
    };
    {
      family = "alg2";
      doc = "Alg2 (k-1 set consensus from one WRN_k): 1sWRN_3 under rotations";
      subjects = [ one_shot_wrn ~k:3 `Rotations ];
      harness = Some (fun ~n:_ ~k ~crashes -> alg2 ~k ~crashes);
      protocols = (fun () -> exemplars "alg2" "propose" (alg2 ~k:3 ~crashes:0));
    };
    {
      family = "alg3";
      doc =
        "Alg3 (n-process set consensus via renaming): WRN_2 plus the \
         renaming layer's snapshot and registers, and the relaxed WRN's \
         1sWRN_2 and guard counters within a 4-op budget, identity group";
      subjects =
        [ wrn ~k:2 `Trivial; snapshot ~name:"renaming-snapshot" ~n:2 `Rotations;
          register ~group:`Trivial (); one_shot_wrn ~k:2 `Trivial;
          counter ~ops:4 ];
      harness =
        Some
          (fun ~n:_ ~k ~crashes ->
            alg3 ~flavor:C.Alg3.Relaxed_wrn ~renamer:C.Alg3.Rename_snapshot
              ~ids:(List.init k (fun i -> i * 37 mod 1000))
              ~crashes);
      protocols = alg3_protocols;
    };
    {
      family = "alg4";
      doc =
        "Alg4 (long-lived WRN from 1sWRN + guards): 1sWRN_2 and a guard \
         counter within a 4-op budget";
      subjects = [ one_shot_wrn ~k:2 `Trivial; counter ~ops:4 ];
      harness = Some (fun ~n:_ ~k ~crashes:_ -> alg4 ~k);
      protocols = (fun () -> exemplars "alg4" "rlx_wrn" (alg4 ~k:2));
    };
    {
      family = "alg5";
      doc =
        "Alg5 (SSE completion): sse(3,2), the doorway register and the \
         announce/publish snapshots under rotations";
      subjects =
        [ sse ~k:3 ~j:2 `Rotations; doorway ~n:3;
          snapshot ~name:"announce-snapshot" ~n:3 `Rotations ];
      harness = Some (fun ~n:_ ~k ~crashes:_ -> alg5 ~k);
      protocols = (fun () -> exemplars "alg5" "wrn" (alg5 ~k:3));
    };
    {
      family = "alg6";
      doc = "Alg6 (group split): per-group WRN_2 and 1sWRN_2, identity group";
      subjects = [ wrn ~k:2 `Trivial; one_shot_wrn ~k:2 `Trivial ];
      harness = Some (fun ~n ~k ~crashes -> alg6 ~n ~k ~crashes);
      protocols =
        (fun () -> exemplars "alg6" "propose" (alg6 ~n:3 ~k:2 ~crashes:0));
    };
    {
      family = "1swrn";
      doc = "the 1sWRN_3 harness: rotation group, proposals 100..102";
      subjects = [ one_shot_wrn ~k:3 `Rotations ];
      harness = Some (fun ~n:_ ~k ~crashes:_ -> one_shot_wrn_object ~k);
      protocols = (fun () -> exemplars "1swrn" "wrn" (one_shot_wrn_object ~k:3));
    };
    {
      family = "set-consensus";
      doc = "the (3,2)-set-consensus harness: full symmetric group";
      subjects = [ set_consensus ~n:3 ~k:2 ];
      harness = Some (fun ~n ~k ~crashes -> set_consensus_object ~n ~k ~crashes);
      protocols =
        (fun () ->
          exemplars "set-consensus" "propose"
            (set_consensus_object ~n:3 ~k:2 ~crashes:0));
    };
  ]

let families () = List.map (fun e -> e.family) (entries ())
let find name = List.find_opt (fun e -> e.family = name) (entries ())
