(** Structured event sink: the output backend for the observability layer.

    Events are flat [name + fields] records. Three backends are provided:
    {!null} (drop everything, the default), {!stderr_sink} (human-readable
    one-liners), and {!jsonl} (one JSON object per line, for machine
    consumption by CI and the bench harness). A process-global current sink
    is installed with {!set}; instrumented code emits through {!emit} and
    pays nothing beyond a closure call when the null sink is installed. *)

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

val null : t
(** Drops all events. The default sink. *)

val stderr_sink : t
(** Prints each event as a [\[obs\] name k=v ...] line on stderr. *)

val jsonl : out_channel -> t
(** Writes each event as one JSON object per line on the given channel. *)

val memory : unit -> t * (unit -> event list)
(** In-memory sink for tests: returns the sink and a function that yields
    all events emitted so far, in order. *)

val set : t -> unit
(** Install the process-global sink. *)

val get : unit -> t

val emit : string -> (string * field) list -> unit
(** [emit name fields] sends an event to the current sink. *)

val flush : unit -> unit

val json_object : (string * field) list -> string
(** One flat JSON object on one line: the renderer behind {!json_of_event}
    and the verdict JSON lines. *)

val json_of_event : event -> string
(** [json_object] of the fields under a leading ["event"] key (used by the
    [jsonl] backend and by the CLI [--json] output path). *)

val text_of_event : event -> string

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

val json_of_field : field -> string
