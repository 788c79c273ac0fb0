type t =
  | Bot
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string
  | Pair of t * t
  | Vec of t list
  | Tag of string * t

(* The type is purely first-order (no functions, no cycles), so the
   polymorphic comparison and hash are sound and total. *)
let compare = Stdlib.compare
let equal a b = compare a b = 0
let hash = Hashtbl.hash

let rec pp ppf = function
  | Bot -> Format.pp_print_string ppf "⊥"
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Sym s -> Format.pp_print_string ppf s
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b
  | Vec vs ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
      vs
  | Tag (s, v) -> Format.fprintf ppf "%s%a" s pp_tag_arg v

and pp_tag_arg ppf = function
  | Unit -> ()
  | v -> Format.fprintf ppf "(%a)" pp v

let to_string v = Format.asprintf "%a" pp v

let int i = Int i
let bool b = Bool b
let sym s = Sym s
let pair a b = Pair (a, b)
let vec vs = Vec vs
let bot_vec n = Vec (List.init n (fun _ -> Bot))
let of_int_list is = Vec (List.map int is)

exception Type_error of string * t

let type_error expected v = raise (Type_error (expected, v))

let to_int = function Int i -> i | v -> type_error "Int" v
let to_bool = function Bool b -> b | v -> type_error "Bool" v
let to_pair = function Pair (a, b) -> (a, b) | v -> type_error "Pair" v
let to_vec = function Vec vs -> vs | v -> type_error "Vec" v

let vec_get v i =
  match v with
  | Vec vs ->
    (try List.nth vs i with Failure _ | Invalid_argument _ -> type_error "Vec index" v)
  | _ -> type_error "Vec" v

let vec_set v i x =
  match v with
  | Vec vs ->
    if i < 0 || i >= List.length vs then type_error "Vec index" v
    else Vec (List.mapi (fun j y -> if j = i then x else y) vs)
  | _ -> type_error "Vec" v

let vec_length v = List.length (to_vec v)
let is_bot v = v = Bot
