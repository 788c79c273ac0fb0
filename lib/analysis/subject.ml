open Subc_sim

type expected_class = Deterministic | Nondeterministic

type independence = Semantic | Declared of (Op.t -> Op.t -> bool)

type bound = Closure | Ops of int

type t = {
  name : string;
  model : Obj_model.t;
  alphabet : Op.t list;
  expected : expected_class;
  may_hang : bool;
  symmetry : Symmetry.t;
  independence : independence;
  value_oblivious : bool;
  values : Value.t list;
  bound : bound;
  max_states : int;
}

let make ~name ~model ~alphabet ~expected ?(may_hang = false)
    ?(symmetry = Symmetry.trivial ~n:1)
    ?(independence = Semantic) ?(value_oblivious = false) ?(values = [])
    ?(bound = Closure) ?(max_states = 20_000) () =
  {
    name;
    model;
    alphabet;
    expected;
    may_hang;
    symmetry;
    independence;
    value_oblivious;
    values;
    bound;
    max_states;
  }

let op_pairs s =
  let rec go = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) (a :: rest) @ go rest
  in
  go s.alphabet

let independent s =
  match s.independence with
  | Semantic -> fun st a b -> Explore.op_independent s.model st a b
  | Declared p -> fun _st a b -> p a b
