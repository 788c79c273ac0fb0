open Subc_sim

type stats = {
  group_order : int;
  states : int;
  pairs : int;
  equivariance_checks : int;
  diamond_checks : int;
}

type violation =
  | Not_equivariant of {
      pi : Symmetry.perm;
      state : Value.t;
      a : Op.t;
      b : Op.t;
      judged : bool;
      judged_image : bool;
    }
  | Vanishing of { state : Value.t; succ : Value.t; a : Op.t; b : Op.t }

let pp_perm ppf pi =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int pi)))

let pp_violation ppf = function
  | Not_equivariant { pi; state; a; b; judged; judged_image } ->
    Format.fprintf ppf
      "@[<v>independence is not %a-equivariant at state %a:@,\
       independent(%a, %a) = %b@,\
       independent(pi.s: pi.%a, pi.%a) = %b@]"
      pp_perm pi Value.pp state Op.pp a Op.pp b judged Op.pp a Op.pp b
      judged_image
  | Vanishing { state; succ; a; b } ->
    Format.fprintf ppf
      "op %a is independent of %a at state %a yet hangs at the \
       %a-successor %a — a slept transition would vanish instead of being \
       explored elsewhere"
      Op.pp a Op.pp b Value.pp state Op.pp b Value.pp succ

(* The closure obligation the source-set reduction adds on top of
   pairwise commutation ({!Commute}): {b equivariance}.  The independence
   judgment must factor through the declared symmetry group, because the
   explorer sorts siblings and transports sleep sets through the
   canonicalizing permutation — a judgment that distinguished orbit-mates
   would make two claims of the same (state, sleep) key expand
   differently.

   Persistence (the pair staying independent at successors) is
   deliberately {e not} an obligation.  The explorer uses conditional,
   state-local independence: a sleep entry carried into a child is
   re-judged against the taken transition at that child, and its covering
   argument only uses the commutation diamond at the state where the
   judgment was made — sleeping [a] after taking [b] at [s] is justified
   because the diamond at [s] lands [a;b] and [b;a] on the same
   configuration, whatever the judgment later says at [b(s)].  Requiring
   persistence would wrongly refute sound state-dependent judgments (a
   queue's enq/deq commute exactly while the queue is nonempty).

   As a cheap corroboration of the per-state diamond, we do verify that a
   pair judged independent keeps both members applicable one step across
   each other ([Vanishing]): hanging there contradicts the very diamond
   {!Commute} certifies, so on a sound subject this never fires. *)
let check (s : Subject.t) (space : Reach.space) =
  let model = s.Subject.model in
  let sym = s.Subject.symmetry in
  let perms = Symmetry.perms sym in
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
  let equivariance_checks = ref 0 in
  let diamond_checks = ref 0 in
  let violation = ref None in
  let fail v =
    violation := Some v;
    raise Exit
  in
  (try
     List.iter
       (fun st ->
         List.iter
           (fun (a, b) ->
             let judged = judge st a b in
             List.iter
               (fun pi ->
                 incr equivariance_checks;
                 let judged_image =
                   judge (Symmetry.act sym pi st)
                     (Equivariance.act_op sym pi a)
                     (Equivariance.act_op sym pi b)
                 in
                 if judged <> judged_image then
                   fail
                     (Not_equivariant
                        { pi; state = st; a; b; judged; judged_image }))
               perms;
             if judged then
               List.iter
                 (fun (succ, _resp) ->
                   incr diamond_checks;
                   if Reach.successors_exn model succ a = [] then
                     fail (Vanishing { state = st; succ; a; b }))
                 (Reach.successors_exn model st b))
           pairs)
       space.Reach.states
   with Exit -> ());
  match !violation with
  | Some v -> Error v
  | None ->
    Ok
      {
        group_order = List.length perms;
        states = space.Reach.n_states;
        pairs = List.length pairs;
        equivariance_checks = !equivariance_checks;
        diamond_checks = !diamond_checks;
      }
