type field =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type event = { name : string; fields : (string * field) list }

type t = {
  emit : event -> unit;
  flush : unit -> unit;
}

let null = { emit = (fun _ -> ()); flush = (fun () -> ()) }

(* Minimal JSON string escaping: enough for metric names, object kinds and
   counterexample one-liners; no dependency on a JSON library. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_field = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Bool b -> if b then "true" else "false"

let json_object fields =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (json_of_field v))
         fields)
  ^ "}"

let json_of_event { name; fields } = json_object (("event", Str name) :: fields)

let text_of_field = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b

let text_of_event { name; fields } =
  name ^ " "
  ^ String.concat " "
      (List.map (fun (k, v) -> k ^ "=" ^ text_of_field v) fields)

let stderr_sink =
  {
    emit = (fun ev -> Printf.eprintf "[obs] %s\n%!" (text_of_event ev));
    flush = (fun () -> flush stderr);
  }

let jsonl oc =
  {
    emit = (fun ev -> output_string oc (json_of_event ev ^ "\n"));
    flush = (fun () -> flush oc);
  }

let memory () =
  let events = ref [] in
  ( { emit = (fun ev -> events := ev :: !events); flush = (fun () -> ()) },
    fun () -> List.rev !events )

let current = ref null
let set t = current := t
let get () = !current
let emit name fields = !current.emit { name; fields }
let flush () = !current.flush ()
