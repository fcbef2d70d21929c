(* Process-wide domain pool + instrumentation shared by every pipeline
   stage.  See runtime.mli for the determinism contract. *)

let recommended_jobs () = Domain.recommended_domain_count ()

module Json = Json

(* ------------------------------------------------------------------ *)
(* Float comparison helpers (lint rule L1)                             *)
(* ------------------------------------------------------------------ *)

module Fx = struct
  (* Monomorphic and NaN-honest replacements for polymorphic =/<> on
     floats.  [exactly] is [Float.equal]: bitwise-intent equality that is
     reflexive on nan (unlike [=]) and treats -0. as 0.  The [is_*]
     predicates name the common sentinel tests so call sites state intent
     instead of comparing against a literal. *)
  let exactly = Float.equal
  let is_zero x = Float.equal x 0.0
  let nonzero x = not (Float.equal x 0.0)
  let is_inf x = Float.equal x infinity
  let is_neg_inf x = Float.equal x neg_infinity
  let is_finite = Float.is_finite

  (* Tolerance comparisons for computed quantities. *)
  let default_tol = 1e-9
  let approx a b = abs_float (a -. b) <= default_tol

  let approx_rel a b =
    abs_float (a -. b) <= default_tol *. (1.0 +. abs_float a +. abs_float b)
end

(* ------------------------------------------------------------------ *)
(* Deterministic hash-table extraction (lint rule L2)                  *)
(* ------------------------------------------------------------------ *)

module Tbl = struct
  (* The one sanctioned way to enumerate a hash table: extract and sort,
     so downstream order never depends on hash internals.  The raw folds
     below are the justified exceptions — their output is immediately
     canonicalized. *)

  let sorted_keys tbl =
    let[@lint.allow
         hashtbl_order "the hash-order fold feeds straight into sort_uniq"]
        keys =
      (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
      [@dsa.allow nondet "hash-order enumeration erased by sort_uniq below"])
    in
    List.sort_uniq compare keys

  let sorted_bindings tbl =
    let[@lint.allow
         hashtbl_order
           "the stable sort on keys below canonicalizes the hash-order \
            fold; duplicate-key bindings keep their insertion order"]
        bindings =
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      [@dsa.allow nondet
        "hash-order enumeration erased by the stable sort on keys below"])
    in
    List.stable_sort (fun (a, _) (b, _) -> compare a b) bindings

  let fold_sorted f tbl init =
    List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings tbl)
end

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

module Clock = struct
  let[@lint.allow
       nondet_source "Clock is the one sanctioned wall-clock reader in lib/"]
      [@dsa.allow
        nondet
          "Clock IS the sanctioned wall-clock source; consumers only feed \
           timers"] start =
    Unix.gettimeofday ()

  (* [Unix.gettimeofday] can step backwards (NTP adjustments); clamp to
     the largest value handed out so far so elapsed-time arithmetic never
     goes negative. *)
  let high_water = Atomic.make 0.0

  let[@lint.allow
       nondet_source "Clock is the one sanctioned wall-clock reader in lib/"]
      [@dsa.allow
        nondet
          "Clock IS the sanctioned wall-clock source; consumers only feed \
           timers"] now () =
    let t = Unix.gettimeofday () -. start in
    let rec clamp () =
      let prev = Atomic.get high_water in
      if t <= prev then prev
      else if Atomic.compare_and_set high_water prev t then t
      else clamp ()
    in
    clamp ()
end

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

type worker = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable stop : bool;
}

(* Set on pool domains, and on the calling domain while it works its own
   section, so a nested [parallel_map] from inside [f] degrades to
   sequential instead of locking [pool_lock] a second time. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let worker_loop w () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock w.lock;
    while w.job = None && not w.stop do
      Condition.wait w.cond w.lock
    done;
    if w.stop then Mutex.unlock w.lock
    else begin
      let job = Option.get w.job in
      w.job <- None;
      Mutex.unlock w.lock;
      (* Jobs are latch-signalling wrappers built in [parallel_map]; they
         never raise. *)
      job ();
      loop ()
    end
  in
  loop ()

(* [pool_lock] serializes parallel sections (one fan-out at a time) and
   protects pool growth. *)
let pool_lock = Mutex.create ()

(* The worker pool is a process singleton by design. *)
let[@lint.allow global_state "every access is under pool_lock"] workers :
    worker list ref =
  ref []

let[@lint.allow global_state "every access is under pool_lock"] domains :
    unit Domain.t list ref =
  ref []

let[@lint.allow global_state "every access is under pool_lock"]
    shutdown_registered =
  ref false

let max_workers = 126

let[@dsa.allow
     mutates_global
       "pool teardown; every write is behind pool_lock, and cophy-race \
        confirms shutdown is never reachable from a spawned closure"]
  shutdown () =
  Mutex.lock pool_lock;
  List.iter
    (fun w ->
      Mutex.lock w.lock;
      w.stop <- true;
      Condition.signal w.cond;
      Mutex.unlock w.lock)
    !workers;
  List.iter Domain.join !domains;
  workers := [];
  domains := [];
  Mutex.unlock pool_lock

(* Grow the pool to [n] workers.  Must be called with [pool_lock] held. *)
let[@dsa.allow
     mutates_global
       "pool growth; caller holds pool_lock (documented precondition), \
        and the pool lists are written only on the coordinating domain \
        — cophy-race audits the spawned side (worker_loop) separately"]
  [@dsa.allow io "one-shot at_exit hook so the pool joins cleanly"]
  ensure_workers n =
  let n = min n max_workers in
  if not !shutdown_registered then begin
    shutdown_registered := true;
    at_exit shutdown
  end;
  while List.length !workers < n do
    let w =
      { lock = Mutex.create (); cond = Condition.create (); job = None; stop = false }
    in
    let d = Domain.spawn (worker_loop w) in
    workers := w :: !workers;
    domains := d :: !domains
  done

let submit w job =
  Mutex.lock w.lock;
  w.job <- Some job;
  Condition.signal w.cond;
  Mutex.unlock w.lock

let parallel_map ?jobs f arr =
  let n = Array.length arr in
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 || n <= 1 || Domain.DLS.get in_worker then Array.map f arr
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let failure : (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    (* Small chunks relative to [n / jobs] so uneven element costs
       rebalance; chunk >= 1 keeps the cursor loop terminating. *)
    let chunk = max 1 (n / (jobs * 8)) in
    let body () =
      let continue = ref true in
      while !continue do
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo >= n || Atomic.get failure <> None then continue := false
        else begin
          let hi = min n (lo + chunk) in
          try
            for i = lo to hi - 1 do
              results.(i) <- Some (f arr.(i))
            done
          with e ->
            (* Keep the worker-domain backtrace: the exception is
               re-raised on the calling domain once workers drain. *)
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue := false
        end
      done
    in
    Mutex.lock pool_lock;
    let finally () = Mutex.unlock pool_lock in
    (try
       let helpers = min (jobs - 1) max_workers in
       ensure_workers helpers;
       let enlisted =
         (* Any [helpers] workers will do; the pool list only grows. *)
         List.filteri (fun i _ -> i < helpers) !workers
       in
       let remaining = ref (List.length enlisted) in
       let latch_lock = Mutex.create () in
       let latch_cond = Condition.create () in
       let[@race.allow
            remaining
              "one completion latch per parallel section, shared by \
               design: every decrement and read happens under \
               latch_lock, and the waking broadcast is issued under the \
               same lock"] helper_job () =
         body ();
         Mutex.lock latch_lock;
         decr remaining;
         if !remaining = 0 then Condition.broadcast latch_cond;
         Mutex.unlock latch_lock
       in
       List.iter (fun w -> submit w helper_job) enlisted;
       Domain.DLS.set in_worker true;
       body ();
       Domain.DLS.set in_worker false;
       Mutex.lock latch_lock;
       while !remaining > 0 do
         Condition.wait latch_cond latch_lock
       done;
       Mutex.unlock latch_lock
     with e ->
       (* Only pool plumbing (e.g. Domain.spawn) can land here; [f]'s
          exceptions are routed through [failure]. *)
       let bt = Printexc.get_raw_backtrace () in
       finally ();
       Printexc.raise_with_backtrace e bt);
    finally ();
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  (* Library-wide observability: named atomic counters plus
     monotonic-clock spans kept in fixed-capacity per-domain ring
     buffers.  Disabled (the default) every probe costs a single
     [Atomic.get]; enabled, a counter tick is one [fetch_and_add] and a
     span is two {!Clock.now} reads plus one preallocated ring slot.
     Retained memory is bounded by [max_domains * ring_capacity] slots
     no matter how long the traced run is, so the layer is safe to leave
     compiled into the [parallel_map] hot paths. *)

  let enabled_flag = Atomic.make false
  let enabled () = Atomic.get enabled_flag
  let enable () = Atomic.set enabled_flag true
  let disable () = Atomic.set enabled_flag false

  (* ---- counters ---- *)

  type counter = { cname : string; cell : int Atomic.t }

  let registry_lock = Mutex.create ()

  (* The counter registry is the process-wide name -> cell map. *)
  let[@lint.allow
       global_state
         "every structural access is under registry_lock, and the cells \
          themselves are Atomics"] registry : counter list ref =
    ref []

  let counter name =
    Mutex.lock registry_lock;
    let c =
      match List.find_opt (fun c -> String.equal c.cname name) !registry with
      | Some c -> c
      | None ->
          let c = { cname = name; cell = Atomic.make 0 } in
          registry := c :: !registry;
          c
    in
    Mutex.unlock registry_lock;
    c

  let incr c =
    if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell 1)

  let add c k =
    if k <> 0 && Atomic.get enabled_flag then
      ignore (Atomic.fetch_and_add c.cell k)

  let counters () =
    Mutex.lock registry_lock;
    let cs = !registry in
    Mutex.unlock registry_lock;
    List.map (fun c -> (c.cname, Atomic.get c.cell)) cs
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* ---- spans ---- *)

  type span = { sname : string; ts : float; dur : float; dom : int }

  let ring_capacity = 4096
  let max_domains = 128

  type ring = { slots : span array; mutable cursor : int }

  let dummy_span = { sname = ""; ts = 0.0; dur = 0.0; dom = 0 }

  (* One ring slot per domain id; no lock is needed on the recording
     path. *)
  let[@lint.allow
       global_state
         "slot d is written only by domain d (see record_span)"] rings :
      ring option array =
    Array.make max_domains None

  let dropped = Atomic.make 0
  let dropped_spans () = Atomic.get dropped

  (* The sanctioned ring-buffer mutation.  [rings.(dom)] is only ever
     installed/written by domain [dom] itself, so concurrent recorders
     never touch the same slot; readers ([spans]/exporters) run after
     the parallel section's completion latch, which establishes the
     happens-before edge.  On overflow the oldest slot is overwritten
     (newest spans win) and [dropped] counts the loss. *)
  let[@dsa.allow
       mutates_global
         "per-domain span ring: slot [dom] is written only by domain \
          [dom] (cophy-race classifies the rings.(dom) write as \
          slot-disjoint, the index being Domain.self-derived); \
          exporters read after the parallel-section latch"]
    [@dsa.allow
      nondet
        "Domain.self only routes the span to the recorder's own \
         slot-disjoint ring; results never depend on which domain \
         recorded"]
    record_span name t0 t1 =
    let dom = (Domain.self () :> int) in
    if dom < 0 || dom >= max_domains then
      ignore (Atomic.fetch_and_add dropped 1)
    else begin
      let r =
        match rings.(dom) with
        | Some r -> r
        | None ->
            let r =
              { slots = Array.make ring_capacity dummy_span; cursor = 0 }
            in
            rings.(dom) <- Some r;
            r
      in
      if r.cursor >= ring_capacity then ignore (Atomic.fetch_and_add dropped 1);
      r.slots.(r.cursor mod ring_capacity) <-
        { sname = name; ts = t0; dur = t1 -. t0; dom };
      r.cursor <- r.cursor + 1
    end

  let span name f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let t0 = Clock.now () in
      Fun.protect ~finally:(fun () -> record_span name t0 (Clock.now ())) f
    end

  let spans () =
    let acc = ref [] in
    Array.iter
      (function
        | None -> ()
        | Some r ->
            let n = min r.cursor ring_capacity in
            let start = if r.cursor > ring_capacity then r.cursor else 0 in
            for k = 0 to n - 1 do
              acc := r.slots.((start + k) mod ring_capacity) :: !acc
            done)
      rings;
    List.sort
      (fun a b ->
        let c = Float.compare a.ts b.ts in
        if c <> 0 then c
        else
          let c = Int.compare a.dom b.dom in
          if c <> 0 then c else String.compare a.sname b.sname)
      !acc

  let[@dsa.allow
       mutates_global
         "trace control plane: reset runs on the main domain between \
          runs, never inside a parallel section"]
    reset () =
    Mutex.lock registry_lock;
    List.iter (fun c -> Atomic.set c.cell 0) !registry;
    Mutex.unlock registry_lock;
    for d = 0 to max_domains - 1 do
      rings.(d) <- None
    done;
    Atomic.set dropped 0

  (* ---- exporters ---- *)

  let num_int i = Json.Num (float_of_int i)

  (* Aggregate spans by name: (name, count, total seconds), sorted. *)
  let span_totals () =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let n, d =
          match Hashtbl.find_opt tbl s.sname with
          | Some (n, d) -> (n, d)
          | None -> (0, 0.0)
        in
        Hashtbl.replace tbl s.sname (n + 1, d +. s.dur))
      (spans ());
    Tbl.sorted_bindings tbl

  (* Flat metrics: counters, per-name span totals, dropped spans. *)
  let metrics () =
    Json.Obj
      [
        ( "counters",
          Json.Obj (List.map (fun (name, v) -> (name, num_int v)) (counters ()))
        );
        ( "spans",
          Json.Obj
            (List.map
               (fun (name, (n, d)) ->
                 (name, Json.Obj [ ("count", num_int n); ("seconds", Json.Num d) ]))
               (span_totals ())) );
        ("dropped_spans", num_int (dropped_spans ()));
      ]

  (* Chrome trace_event JSON (chrome://tracing, Perfetto): complete
     ("ph":"X") events with microsecond timestamps.  The flat metrics
     object rides along under a top-level "metrics" key, which the
     trace viewers ignore. *)
  let to_chrome_json () =
    let event s =
      Json.Obj
        [
          ("name", Json.Str s.sname);
          ("cat", Json.Str "cophy");
          ("ph", Json.Str "X");
          ("pid", num_int 1);
          ("tid", num_int s.dom);
          ("ts", Json.Num (s.ts *. 1e6));
          ("dur", Json.Num (s.dur *. 1e6));
        ]
    in
    Json.to_string
      (Json.Obj
         [
           ("traceEvents", Json.List (List.map event (spans ())));
           ("displayTimeUnit", Json.Str "ms");
           ("metrics", metrics ());
         ])

  (* The file is opened up front so that an unwritable path fails before
     any work; the export runs from [at_exit], which [exit] and uncaught
     exceptions both reach. *)
  let record_to_file file =
    match open_out file with
    | exception Sys_error msg -> Error msg
    | oc ->
        enable ();
        at_exit (fun () ->
            output_string oc (to_chrome_json ());
            output_char oc '\n';
            close_out oc);
        Ok ()
end

module Search = struct
  (* Deterministic bulk-synchronous best-first search.

     One global priority queue (pairing heap under a caller-supplied
     total order) feeds rounds: each round pops up to [batch] best nodes
     in heap order, evaluates them concurrently on the domain pool, and
     merges the results sequentially in pop order.  Because the batch
     size, the pop order and the merge order are all independent of the
     job count, the search trajectory (and
     with it every result, node count included) is bit-identical at any
     [jobs].  Shared state such as an incumbent must only be written
     during [expand] (sequential); [eval] may read it freely — between
     two merges its value is deterministic. *)

  let tr_rounds = Trace.counter "search.rounds"
  let tr_expanded = Trace.counter "search.expanded"

  type 'n heap = Empty | Node of 'n * 'n heap list

  let run (type n r) ?(jobs = 1) ~batch ~(compare : n -> n -> int)
      ~(roots : n list) ~(eval : n -> r)
      ~(expand : n -> r -> n list) ~(stop : unit -> bool) () =
    let jobs = max 1 jobs in
    let batch = max 1 batch in
    let merge a b =
      match (a, b) with
      | Empty, x | x, Empty -> x
      | Node (na, ca), Node (nb, cb) ->
          if compare na nb <= 0 then Node (na, b :: ca) else Node (nb, a :: cb)
    in
    let rec merge_pairs = function
      | [] -> Empty
      | [ h ] -> h
      | a :: b :: rest -> merge (merge a b) (merge_pairs rest)
    in
    let heap = ref Empty in
    let push n = heap := merge (Node (n, [])) !heap in
    let pop () =
      match !heap with
      | Empty -> None
      | Node (n, children) ->
          heap := merge_pairs children;
          Some n
    in
    List.iter push roots;
    let finished = ref false in
    while not !finished do
      if stop () || !heap = Empty then finished := true
      else begin
        Trace.incr tr_rounds;
        let round = ref [] in
        let k = ref 0 in
        while !k < batch && !heap <> Empty do
          (match pop () with
          | Some n ->
              round := n :: !round;
              incr k
          | None -> ());
          ()
        done;
        let nodes = Array.of_list (List.rev !round) in
        let results = parallel_map ~jobs eval nodes in
        Array.iteri
          (fun i n ->
            Trace.incr tr_expanded;
            List.iter push (expand n results.(i)))
          nodes
      end
    done
end
