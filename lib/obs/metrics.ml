(* Process-wide counter totals.  Counters are interned atomics: a writer
   looks its handle up once and adds with one atomic [fetch_and_add], so
   searches ending on several domains at once add without tearing.  The
   registry itself (interning and snapshots) is guarded by a mutex:
   those are setup and reporting paths, never hot. *)

type counter = int Atomic.t

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add counters name c;
        c)

let add c n = ignore (Atomic.fetch_and_add c n)

let find name =
  with_lock (fun () ->
      Option.map
        (fun c -> float_of_int (Atomic.get c))
        (Hashtbl.find_opt counters name))

let snapshot () =
  with_lock (fun () ->
      let xs = ref [] in
      Hashtbl.iter
        (fun name c -> xs := (name, float_of_int (Atomic.get c)) :: !xs)
        counters;
      List.sort (fun (a, _) (b, _) -> compare a b) !xs)

let emit_snapshot ?(name = "metrics") () =
  Sink.emit name
    (List.map (fun (k, v) -> (k, Sink.Float v)) (snapshot ()))
