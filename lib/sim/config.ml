type status =
  | Running of Value.t Program.t
  | Terminated of Value.t
  | Hung
  | Crashed
  | Recovering of Value.t Program.t

type proc = {
  status : status;
  history : Value.t list;
  steps : int;
  recoveries : int;
}

type t = {
  store : Store.t;
  procs : proc array;
  programs : Value.t Program.t array;
}

(* Normalize a continuation: [Return] terminates, [Checkpoint] replaces the
   response history with its key (see [Program.checkpoint]). *)
let rec advance program history =
  match program with
  | Program.Return v -> (Terminated v, history)
  | Program.Checkpoint (key, rest) -> advance rest [ key ]
  | Program.Invoke _ -> (Running program, history)

let make store programs =
  let proc p =
    let status, history = advance p [] in
    { status; history; steps = 0; recoveries = 0 }
  in
  {
    store;
    procs = Array.of_list (List.map proc programs);
    programs = Array.of_list programs;
  }

let n_procs c = Array.length c.procs

let can_step proc =
  match proc.status with
  | Running _ | Recovering _ -> true
  | Terminated _ | Hung | Crashed -> false

let running c =
  let acc = ref [] in
  Array.iteri (fun i p -> if can_step p then acc := i :: !acc) c.procs;
  List.rev !acc

let is_terminal c = not (Array.exists can_step c.procs)

let decision c i =
  match c.procs.(i).status with
  | Terminated v -> Some v
  | Running _ | Recovering _ | Hung | Crashed -> None

let decisions c =
  Array.to_list c.procs
  |> List.filter_map (fun p ->
         match p.status with
         | Terminated v -> Some v
         | Running _ | Recovering _ | Hung | Crashed -> None)

let any_hung c =
  Array.exists (fun p -> match p.status with Hung -> true | _ -> false) c.procs

let is_crashed p = match p.status with Crashed -> true | _ -> false

let crashed c =
  let acc = ref [] in
  Array.iteri (fun i p -> if is_crashed p then acc := i :: !acc) c.procs;
  List.rev !acc

let n_crashed c =
  Array.fold_left (fun n p -> if is_crashed p then n + 1 else n) 0 c.procs

let any_crashed c = n_crashed c > 0

let n_recoveries c =
  Array.fold_left (fun n p -> n + p.recoveries) 0 c.procs

let any_recovered c =
  Array.exists (fun p -> p.recoveries > 0) c.procs

(* The history is cleared on crash: a crashed process has no continuation,
   so its response history can no longer influence the execution — dropping
   it merges configurations that differ only in where the victim was when
   it died, which is what makes exhaustive crash sweeps tractable. *)
let crash c i =
  match c.procs.(i).status with
  | Running _ | Recovering _ ->
    let procs = Array.copy c.procs in
    procs.(i) <- { c.procs.(i) with status = Crashed; history = [] };
    { c with procs }
  | Terminated _ | Hung | Crashed ->
    invalid_arg (Printf.sprintf "Config.crash: process %d cannot crash" i)

(* Crash-recovery: the crashed process restarts its initial program with an
   empty response history (local state is volatile — lost with the crash),
   while the store keeps only persistent object state ([Store.recover]).
   The per-process [recoveries] counter is part of the configuration key:
   the recovery budget must be derivable from the configuration alone (the
   transient [Recovering] status is erased by the process's first step), or
   memoization would merge configurations with different remaining
   budgets. *)
let recover c i =
  match c.procs.(i).status with
  | Crashed ->
    let status, history = advance c.programs.(i) [] in
    let status =
      match status with Running prog -> Recovering prog | s -> s
    in
    let procs = Array.copy c.procs in
    procs.(i) <-
      {
        status;
        history;
        steps = c.procs.(i).steps;
        recoveries = c.procs.(i).recoveries + 1;
      };
    { c with store = Store.recover c.store; procs }
  | Running _ | Recovering _ | Terminated _ | Hung ->
    invalid_arg (Printf.sprintf "Config.recover: process %d is not crashed" i)

(* Delta-encoded configurations: a frontier entry is a parent pointer
   plus the slot patches its transition rewrote, with a periodic rebase
   to a materialized root every K links so chains (and materialization
   cost) stay bounded.  The patches are exactly [Step]'s [slots], so the
   frontier retains O(1) fresh words per entry instead of a copied proc
   array per entry; everything else is structure-shared with the root. *)
module Delta = struct
  type config = t

  type patch = {
    p_procs : (int * proc) list;
    p_store : (Store.handle * Value.t) list;
  }

  type t = Root of config | Link of t * int * patch

  let rebase_interval = 8
  let root c = Root c
  let links = function Root _ -> 0 | Link (_, n, _) -> n

  (* O(1) (physically the root itself) on [Root]; otherwise one proc-array
     copy plus one [Store.set] per store patch, applied oldest-first so
     later links win. *)
  let materialize node =
    match node with
    | Root c -> c
    | Link _ ->
      let rec collect acc = function
        | Root c -> (c, acc)
        | Link (parent, _, patch) -> collect (patch :: acc) parent
      in
      let c0, patches = collect [] node in
      let procs = Array.copy c0.procs in
      let store =
        List.fold_left
          (fun store patch ->
            List.iter (fun (i, p) -> procs.(i) <- p) patch.p_procs;
            List.fold_left
              (fun store (h, v) -> Store.set store h v)
              store patch.p_store)
          c0.store patches
      in
      { c0 with store; procs }

  let extend node ~proc_sets ~store_sets =
    let n = links node + 1 in
    let link =
      Link (node, n, { p_procs = proc_sets; p_store = store_sets })
    in
    if n >= rebase_interval then Root (materialize link) else link
end

let proc_key p =
  let status =
    match p.status with
    | Running _ -> Value.Sym "run"
    | Terminated v -> Value.Tag ("done", v)
    | Hung -> Value.Sym "hung"
    | Crashed -> Value.Sym "crash"
    | Recovering _ -> Value.Sym "recover"
  in
  Value.Pair
    (status, Value.Pair (Value.Int p.recoveries, Value.Vec p.history))

let key c =
  let store_part =
    Value.Vec
      (List.map (fun (h, st) -> Value.Pair (Value.Int h, st)) (Store.contents c.store))
  in
  let procs_part = Value.Vec (Array.to_list (Array.map proc_key c.procs)) in
  Value.Pair (store_part, procs_part)

let pp ppf c =
  Format.fprintf ppf "@[<v>store:@,%a" Store.pp c.store;
  Array.iteri
    (fun i p ->
      let status =
        match p.status with
        | Running _ -> "running"
        | Terminated v -> "terminated " ^ Value.to_string v
        | Hung -> "hung"
        | Crashed -> "crashed"
        | Recovering _ -> "recovering"
      in
      Format.fprintf ppf "P%d: %s after %d steps%s@," i status p.steps
        (if p.recoveries > 0 then
           Printf.sprintf " (%d recoveries)" p.recoveries
         else ""))
    c.procs;
  Format.fprintf ppf "@]"
