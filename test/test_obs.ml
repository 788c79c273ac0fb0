(* The observability layer: sinks, metrics, spans (lib/obs). *)
open Helpers
module Sink = Subc_obs.Sink
module Metrics = Subc_obs.Metrics
module Span = Subc_obs.Span

(* Every test that installs a sink must restore the null sink: the registry
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

let metrics_tests =
  [
    test "counters are interned by name" (fun () ->
        Metrics.reset ();
        let a = Metrics.counter "obs.test.c" in
        let b = Metrics.counter "obs.test.c" in
        Metrics.incr a;
        Metrics.add b 4;
        Alcotest.(check int) "both handles hit one cell" 5 (Metrics.value a);
        Alcotest.(check (option (float 0.0))) "find sees it" (Some 5.0)
          (Metrics.find "obs.test.c"));
    test "gauges and snapshot" (fun () ->
        (* The registry is process-global (other modules intern counters at
           load time), so assert membership, not the whole snapshot. *)
        Metrics.set_gauge "obs.test.g" 2.5;
        Metrics.incr (Metrics.counter "obs.test.c2");
        let snap = Metrics.snapshot () in
        Alcotest.(check (option (float 0.0))) "gauge present" (Some 2.5)
          (List.assoc_opt "obs.test.g" snap);
        Alcotest.(check (option (float 0.0))) "counter present" (Some 1.0)
          (List.assoc_opt "obs.test.c2" snap);
        Alcotest.(check (list string)) "sorted by name"
          (List.sort compare (List.map fst snap))
          (List.map fst snap));
    test "reset zeroes counters and drops gauges" (fun () ->
        let c = Metrics.counter "obs.test.c3" in
        Metrics.incr c;
        Metrics.set_gauge "obs.test.g3" 1.0;
        Metrics.reset ();
        Alcotest.(check int) "counter zeroed" 0 (Metrics.value c);
        Alcotest.(check (option (float 0.0))) "gauge dropped" None
          (Metrics.find "obs.test.g3"))
  ]

let span_tests =
  [
    test "time returns the thunk's value and accumulates" (fun () ->
        Span.reset ();
        Alcotest.(check int) "value through" 7
          (Span.time "obs.test.span" (fun () -> 7));
        let t1 =
          match Span.total "obs.test.span" with
          | Some t -> t
          | None -> Alcotest.fail "no total recorded"
        in
        Alcotest.(check bool) "non-negative" true (t1 >= 0.0);
        ignore (Span.time "obs.test.span" (fun () -> 0));
        let t2 = Option.get (Span.total "obs.test.span") in
        Alcotest.(check bool) "accumulation is monotone" true (t2 >= t1));
    test "a span times wall clock, not CPU time" (fun () ->
        Span.reset ();
        Span.time "obs.test.sleep" (fun () -> Unix.sleepf 0.05);
        let t = Option.get (Span.total "obs.test.sleep") in
        (* Sleeping burns no CPU, so a CPU-time span would read ~0. *)
        Alcotest.(check bool)
          (Printf.sprintf "recorded %.3fs >= 0.04s" t)
          true (t >= 0.04));
    test "a span is recorded even when the thunk raises" (fun () ->
        Span.reset ();
        (try Span.time "obs.test.raise" (fun () -> raise Exit)
         with Exit -> ());
        Alcotest.(check bool) "total present" true
          (Span.total "obs.test.raise" <> None));
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
        let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
        let config =
          Config.make store
            (List.init 3 (fun i ->
                 Subc_core.Alg5.wrn t ~i (Value.Int (100 + i))))
        in
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
