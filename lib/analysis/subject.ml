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
  group_name : string;
  independence : independence;
  value_oblivious : bool;
  values : Value.t list;
  bound : bound;
  max_states : int;
}

let make ~name ~model ~alphabet ~expected ?(may_hang = false)
    ?(symmetry = Symmetry.trivial ~n:1) ?(group_name = "trivial")
    ?(independence = Semantic) ?(value_oblivious = false) ?(values = [])
    ?(bound = Closure) ?(max_states = 20_000) () =
  {
    name;
    model;
    alphabet;
    expected;
    may_hang;
    symmetry;
    group_name;
    independence;
    value_oblivious;
    values;
    bound;
    max_states;
  }
