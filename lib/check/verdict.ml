open Subc_sim
module Obs = Subc_obs

type stats = {
  explore : Explore.stats option;
  note : string;
  metrics : (string * float) list;
}

type t =
  | Proved of stats
  | Refuted of { reason : string; trace : Trace.t; stats : stats }
  | Limited of stats

let mk ?explore ?(metrics = []) note = { explore; note; metrics }
let proved ?explore ?metrics note = Proved (mk ?explore ?metrics note)

let refuted ?explore ?metrics ~trace reason =
  Refuted { reason; trace; stats = mk ?explore ?metrics reason }

let limited ?explore ?metrics note = Limited (mk ?explore ?metrics note)

let stats = function Proved s | Limited s -> s | Refuted { stats; _ } -> stats
let note v = (stats v).note
let is_proved = function Proved _ -> true | _ -> false
let is_refuted = function Refuted _ -> true | _ -> false
let is_limited = function Limited _ -> true | _ -> false

let status_string = function
  | Proved _ -> "proved"
  | Refuted _ -> "refuted"
  | Limited _ -> "limited"

(* The CLI exit-code contract shared by every subcommand. *)
let exit_code = function Proved _ -> 0 | Refuted _ -> 1 | Limited _ -> 2

(* A refutation is conclusive bad news and wins over an inconclusive
   truncation; truncation wins over success. *)
let combined_exit vs =
  if List.exists is_refuted vs then 1
  else if List.exists is_limited vs then 2
  else 0

let pp_metrics ppf = function
  | [] -> ()
  | ms ->
    Format.fprintf ppf "@,metrics:";
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%g" k v) ms

let pp_explore ppf = function
  | None -> ()
  | Some e -> Format.fprintf ppf "@,%a" Explore.pp_stats e

let pp ppf v =
  match v with
  | Proved s | Limited s ->
    Format.fprintf ppf "@[<v>%s: %s%a%a@]"
      (String.uppercase_ascii (status_string v))
      s.note pp_explore s.explore pp_metrics s.metrics
  | Refuted { reason; trace; stats = s } ->
    Format.fprintf ppf "@[<v>REFUTED: %s%a%a@,counterexample:@,%a@]" reason
      pp_explore s.explore pp_metrics s.metrics Trace.pp trace

let pp_summary ppf v =
  Format.fprintf ppf "%s: %s"
    (String.uppercase_ascii (status_string v))
    (note v)

(* JSON rendering through the Obs field encoder: one flat object per
   verdict, suitable for JSON-lines output. *)
let json_fields ?name v =
  let s = stats v in
  List.concat
    [
      (match name with Some n -> [ ("check", Obs.Sink.Str n) ] | None -> []);
      [
        ("verdict", Obs.Sink.Str (status_string v));
        ("exit_code", Obs.Sink.Int (exit_code v));
        ("note", Obs.Sink.Str s.note);
      ];
      (match v with
      | Refuted { trace; _ } ->
        [
          ( "counterexample",
            Obs.Sink.Str (Format.asprintf "%a" Trace.pp trace) );
        ]
      | _ -> []);
      Option.fold ~none:[] ~some:Explore.stats_fields s.explore;
      List.map (fun (k, x) -> (k, Obs.Sink.Float x)) s.metrics;
    ]

let to_json ?name v = Obs.Sink.json_object (json_fields ?name v)
