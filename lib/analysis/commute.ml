open Subc_sim

type stats = {
  pairs : int;
  contexts : int;
  independent : int;
  dependent : int;
}

type race = {
  state : Value.t;
  a : Op.t;
  b : Op.t;
  ab : (Value.t * Value.t * Value.t) list;
  ba : (Value.t * Value.t * Value.t) list;
}

let pp_outcomes ppf = function
  | [] -> Format.fprintf ppf "hangs"
  | outs ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf (s, ra, rb) ->
           Format.fprintf ppf "%a ra=%a rb=%a" Value.pp s Value.pp ra Value.pp
             rb))
      outs

let pp_race ppf r =
  Format.fprintf ppf
    "@[<v>ops %a and %a judged independent but do not commute at state %a:@,\
     %a-first: %a@,\
     %a-first: %a@]"
    Op.pp r.a Op.pp r.b Value.pp r.state Op.pp r.a pp_outcomes r.ab Op.pp r.b
    pp_outcomes r.ba

exception Hung

(* One order of the diamond: every resolution of nondeterminism of [first]
   then [second], as (final state, response of first, response of second).
   [`Hangs] when [first] has no successor, or some completion of [first]
   leaves [second] with none — running the ops in this order can then hang
   an invoker, which the other order must match to be independent.  A
   [`Outs] list is never empty: a completing order has a completion. *)
let order_outcomes model st0 first second =
  match Reach.successors_exn model st0 first with
  | [] -> `Hangs
  | firsts -> (
    try
      `Outs
        (List.concat_map
           (fun (s1, r1) ->
             match Reach.successors_exn model s1 second with
             | [] -> raise Hung
             | ys -> List.map (fun (s2, r2) -> (s2, r1, r2)) ys)
           firsts)
    with Hung -> `Hangs)

let diamond model st0 a b =
  let ab = order_outcomes model st0 a b in
  let ba =
    match order_outcomes model st0 b a with
    | `Hangs -> `Hangs
    | `Outs l -> `Outs (List.map (fun (s, rb, ra) -> (s, ra, rb)) l)
  in
  match (ab, ba) with
  | `Hangs, `Hangs -> `Commute
  | `Outs x, `Outs y ->
    let x = List.sort compare x and y = List.sort compare y in
    if x = y then `Commute else `Diverge (x, y)
  | `Outs x, `Hangs -> `Diverge (List.sort compare x, [])
  | `Hangs, `Outs y -> `Diverge ([], List.sort compare y)

let check (s : Subject.t) (space : Reach.space) =
  let model = s.Subject.model in
  let judge =
    match s.Subject.independence with
    | Subject.Semantic -> fun st a b -> Explore.op_independent model st a b
    | Subject.Declared p -> fun _st a b -> p a b
  in
  let rec op_pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) (a :: rest) @ op_pairs rest
  in
  let pairs = op_pairs s.Subject.alphabet in
  let contexts = ref 0 and independent = ref 0 and dependent = ref 0 in
  let race = ref None in
  (try
     List.iter
       (fun st ->
         List.iter
           (fun (a, b) ->
             incr contexts;
             if judge st a b then begin
               incr independent;
               match diamond model st a b with
               | `Commute -> ()
               | `Diverge (ab, ba) ->
                 race := Some { state = st; a; b; ab; ba };
                 raise Exit
             end
             else incr dependent)
           pairs)
       space.Reach.states
   with Exit -> ());
  match !race with
  | Some r -> Error r
  | None ->
    Ok
      {
        pairs = List.length pairs;
        contexts = !contexts;
        independent = !independent;
        dependent = !dependent;
      }
