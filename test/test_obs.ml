(* The observability layer: sinks, metrics, spans (lib/obs). *)
open Helpers
module Sink = Subc_obs.Sink
module Metrics = Subc_obs.Metrics
module Span = Subc_obs.Span

(* Every test that installs a sink must restore the null sink: the sink
   is process-global and other suites emit through it. *)
let with_memory_sink f =
  let sink, events = Sink.memory () in
  Sink.set sink;
  Fun.protect ~finally:(fun () -> Sink.set Sink.null) (fun () -> f events)

let sink_tests =
  [
    test "set installs the sink emit/flush use" (fun () ->
        with_memory_sink (fun events ->
            Sink.emit "alpha" [ ("n", Sink.Int 1) ];
            Sink.emit "beta" [];
            Alcotest.(check (list string))
              "events in order" [ "alpha"; "beta" ]
              (List.map (fun e -> e.Sink.name) (events ()))));
    test "null sink drops everything" (fun () ->
        with_memory_sink (fun events ->
            Sink.set Sink.null;
            Sink.emit "dropped" [];
            Alcotest.(check int) "no events" 0 (List.length (events ()))));
    test "memory sink preserves fields" (fun () ->
        with_memory_sink (fun events ->
            let fields =
              [
                ("i", Sink.Int 3); ("f", Sink.Float 1.5);
                ("s", Sink.Str "x"); ("b", Sink.Bool true);
              ]
            in
            Sink.emit "ev" fields;
            match events () with
            | [ e ] ->
              Alcotest.(check bool) "fields round-trip" true
                (e.Sink.fields = fields)
            | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)));
  ]

let json_tests =
  [
    test "json_of_event renders one flat object" (fun () ->
        let ev =
          {
            Sink.name = "span";
            fields =
              [
                ("label", Sink.Str "explore"); ("n", Sink.Int 42);
                ("ratio", Sink.Float 0.5); ("ok", Sink.Bool false);
              ];
          }
        in
        Alcotest.(check string) "exact rendering"
          "{\"event\":\"span\",\"label\":\"explore\",\"n\":42,\"ratio\":0.5,\"ok\":false}"
          (Sink.json_of_event ev));
    test "integral floats keep a decimal point" (fun () ->
        Alcotest.(check string) "2.0 not 2" "2.0"
          (Sink.json_of_field (Sink.Float 2.0)));
    test "escape handles quotes, backslashes and control chars" (fun () ->
        Alcotest.(check string) "escaped" "a\\\"b\\\\c\\n\\t\\u0001"
          (Sink.escape "a\"b\\c\n\t\x01"));
    test "jsonl events parse back through the escape table" (fun () ->
        let ev = { Sink.name = "e\"v"; fields = [ ("k\n", Sink.Str "v\\") ] } in
        Alcotest.(check string) "escaped keys and values"
          "{\"event\":\"e\\\"v\",\"k\\n\":\"v\\\\\"}" (Sink.json_of_event ev));
  ]

(* The registry is process-wide: each test adds to a counter of its own,
   and no test reads a total another test or search moves. *)
let metrics_tests =
  [
    test "counters are interned by name" (fun () ->
        let a = Metrics.counter "obs.test.c" in
        let b = Metrics.counter "obs.test.c" in
        Metrics.add a 1;
        Metrics.add b 4;
        Alcotest.(check (option (float 0.0))) "both handles hit one cell"
          (Some 5.0) (Metrics.find "obs.test.c"));
    test "snapshot lists every counter, sorted by name" (fun () ->
        Metrics.add (Metrics.counter "obs.test.c2") 1;
        let snap = Metrics.snapshot () in
        Alcotest.(check (option (float 0.0))) "counter present" (Some 1.0)
          (List.assoc_opt "obs.test.c2" snap);
        Alcotest.(check (list string)) "sorted by name"
          (List.sort compare (List.map fst snap))
          (List.map fst snap));
    test "emit_snapshot sends the snapshot; find misses unknown names"
      (fun () ->
        Alcotest.(check (option (float 0.0))) "unknown name" None
          (Metrics.find "obs.test.never");
        with_memory_sink (fun events ->
            Metrics.emit_snapshot ();
            let expected =
              List.map (fun (k, v) -> (k, Sink.Float v)) (Metrics.snapshot ())
            in
            match events () with
            | [ { Sink.name = "metrics"; fields } ] ->
              Alcotest.(check bool) "fields are the snapshot" true
                (fields = expected)
            | es ->
              Alcotest.failf "expected one metrics event, got %d"
                (List.length es)));
  ]

(* [Span.time label f] under a memory sink: [f]'s result (or exception)
   and the seconds of the one span event it emitted. *)
let timed label f =
  with_memory_sink (fun events ->
      let r = match Span.time label f with v -> Ok v | exception e -> Error e in
      match events () with
      | [ { Sink.name = "span"; fields } ] -> (
        Alcotest.(check bool) "label field" true
          (List.assoc_opt "label" fields = Some (Sink.Str label));
        match List.assoc_opt "seconds" fields with
        | Some (Sink.Float t) -> (r, t)
        | _ -> Alcotest.fail "span event without seconds")
      | es -> Alcotest.failf "expected one span event, got %d" (List.length es))

let span_tests =
  [
    test "time returns the thunk's value and emits its seconds" (fun () ->
        let r, t = timed "obs.test.span" (fun () -> 7) in
        Alcotest.(check bool) "value through" true (r = Ok 7);
        Alcotest.(check bool) "non-negative" true (t >= 0.0));
    test "a span times wall clock, not CPU time" (fun () ->
        let _, t = timed "obs.test.sleep" (fun () -> Unix.sleepf 0.05) in
        (* Sleeping burns no CPU, so a CPU-time span would read ~0. *)
        Alcotest.(check bool)
          (Printf.sprintf "recorded %.3fs >= 0.04s" t)
          true (t >= 0.04));
    test "a span is emitted even when the thunk raises" (fun () ->
        let r, _ = timed "obs.test.raise" (fun () -> raise Exit) in
        Alcotest.(check bool) "exception through" true (r = Error Exit));
    test "time emits a span event on the current sink" (fun () ->
        with_memory_sink (fun events ->
            ignore (Span.time "obs.test.emit" (fun () -> ()));
            match events () with
            | [ { Sink.name = "span"; fields } ] ->
              Alcotest.(check bool) "label field" true
                (List.assoc_opt "label" fields
                = Some (Sink.Str "obs.test.emit"))
            | es ->
              Alcotest.failf "expected one span event, got %d"
                (List.length es)));
  ]

(* The explore event's [seconds] is wall time around the search.  A
   second domain spins through five Alg5 k=3 searches, so process CPU
   time would read about twice the wall time on a host with two or more
   cores. *)
let explore_event_tests =
  [
    test "explore seconds are wall time under a busy domain" (fun () ->
        let open Subc_sim in
        let config = root (Registry.alg5 ~k:3) in
        let running = Atomic.make false and stop = Atomic.make false in
        let spinner =
          Domain.spawn (fun () ->
              Atomic.set running true;
              while not (Atomic.get stop) do
                Domain.cpu_relax ()
              done)
        in
        while not (Atomic.get running) do
          Domain.cpu_relax ()
        done;
        let seconds, wall =
          Fun.protect
            ~finally:(fun () ->
              Atomic.set stop true;
              Domain.join spinner)
            (fun () ->
              with_memory_sink (fun events ->
                  let t0 = Unix.gettimeofday () in
                  for _ = 1 to 5 do
                    ignore
                      (Search.iter_terminals
                        ~options:Search.(default |> with_max_crashes 1)
                        config
                         ~f:(fun _ _ -> ()))
                  done;
                  let wall = Unix.gettimeofday () -. t0 in
                  let seconds =
                    List.filter_map
                      (fun e ->
                        match List.assoc_opt "seconds" e.Sink.fields with
                        | Some (Sink.Float s) when e.Sink.name = "explore" ->
                          Some s
                        | _ -> None)
                      (events ())
                  in
                  Alcotest.(check int) "one event per search" 5
                    (List.length seconds);
                  (List.fold_left ( +. ) 0.0 seconds, wall)))
        in
        if seconds > wall +. 0.005 then
          Alcotest.failf "event seconds %.4f exceed wall time %.4f + 5 ms"
            seconds wall);
  ]

let suite =
  [
    ("obs.sink", sink_tests);
    ("obs.json", json_tests);
    ("obs.metrics", metrics_tests);
    ("obs.span", span_tests);
    ("obs.explore", explore_event_tests);
  ]
