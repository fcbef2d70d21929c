(** Shared parallel runtime for the CoPhy pipeline.

    The advisor pipeline has two embarrassingly parallel hot stages
    (per-statement INUM cache construction and per-block Lagrangian
    subproblems).  Both fan out through {!parallel_map}, which runs on a
    lazily-created pool of reusable worker domains.  The pool is a process
    singleton: repeated parallel sections reuse the same domains instead of
    paying [Domain.spawn] on every call.

    Determinism contract: [parallel_map f arr] returns exactly
    [Array.map f arr] — results are written back by index, so the output
    order never depends on domain scheduling.  With [jobs:1] (or on arrays
    of length [<= 1]) the call degrades to a plain sequential [Array.map]
    on the calling domain, bit-identical to the pre-parallel code path. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], i.e. a job count matched to the
    hardware. *)

(** The one JSON codec: the serve protocol and the {!Trace} exporter
    both use it. *)
module Json = Json

(** Monomorphic float comparisons (lint rule L1: no polymorphic [=] /
    [compare] on floats).  [exactly]/[is_zero]/[nonzero]/[is_inf] are
    exact (bit-intent) tests for sentinels and skip-work fast paths,
    NaN-reflexive unlike [=]; [approx]/[approx_rel] are the tolerance
    comparisons for computed quantities. *)
module Fx : sig
  val exactly : float -> float -> bool
  (** [Float.equal]: exact, [exactly nan nan = true], [-0. = 0.]. *)

  val is_zero : float -> bool
  val nonzero : float -> bool
  val is_inf : float -> bool  (** equal to [infinity] *)

  val is_neg_inf : float -> bool
  val is_finite : float -> bool
  val default_tol : float  (** [1e-9] *)

  val approx : float -> float -> bool
  (** absolute: [|a - b| <= default_tol] *)

  val approx_rel : float -> float -> bool
  (** relative: [|a - b| <= default_tol * (1 + |a| + |b|)] *)
end

(** Deterministic hash-table enumeration (lint rule L2: no order-sensitive
    [Hashtbl.iter]/[fold]).  All functions sort by key with polymorphic
    [compare], so results never depend on hash order. *)
module Tbl : sig
  val sorted_keys : ('a, 'b) Hashtbl.t -> 'a list
  (** distinct keys, ascending *)

  val sorted_bindings : ('a, 'b) Hashtbl.t -> ('a * 'b) list
  (** all bindings sorted by key (stable: duplicate-key bindings keep
      their relative order) *)

  val fold_sorted : ('a -> 'b -> 'acc -> 'acc) -> ('a, 'b) Hashtbl.t -> 'acc -> 'acc
end

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ?jobs f arr] maps [f] over [arr] using up to [jobs]
    domains (the caller participates, so at most [jobs - 1] pool workers
    are enlisted).  [jobs] defaults to {!recommended_jobs}.

    - Order-preserving: element [i] of the result is [f arr.(i)].
    - Work is handed out in contiguous chunks claimed from an [Atomic]
      cursor, so uneven per-element cost balances across domains.
    - Exception-propagating: if any application of [f] raises, the first
      exception captured is re-raised on the calling domain after all
      workers have drained.
    - Re-entrant: a call made from inside a worker (nested parallelism)
      falls back to sequential [Array.map] rather than deadlocking on the
      pool. *)

(** Monotonic wall-clock used for every [elapsed]/timing field in the
    code base ({!Clock.now} is non-decreasing even if the system clock
    steps backwards). *)
module Clock : sig
  val now : unit -> float
  (** Seconds since process start; guaranteed non-decreasing across calls
      from any domain. *)
end

(** Zero-overhead-when-off observability: named atomic counters and
    monotonic-clock spans recorded into fixed-capacity per-domain ring
    buffers, with a Chrome [trace_event] JSON exporter.

    Cost contract: with tracing disabled (the default) every probe —
    {!Trace.incr}, {!Trace.add}, {!Trace.span} — performs exactly one
    [Atomic.get] and nothing else, so instrumentation can stay compiled
    into hot paths.  Enabled, a counter tick is a single
    [Atomic.fetch_and_add] and a span costs two {!Clock.now} reads plus
    one write into a preallocated ring slot; memory retained by tracing
    is bounded by [max_domains * ring_capacity] span records.

    Concurrency contract: counters are shared atomics (safe from any
    domain, including {!parallel_map} workers); each domain records
    spans only into its own ring, and exporters must run outside
    parallel sections (the fan-out completion latch provides the
    happens-before edge).  Tracing never changes results: probes read
    the clock and mutate trace-private state only (the trace-neutrality
    determinism tests pin this down). *)
module Trace : sig
  val enabled : unit -> bool
  val enable : unit -> unit
  val disable : unit -> unit

  val reset : unit -> unit
  (** Zero all counters, drop all recorded spans and the
      {!dropped_spans} count.  Call between runs, never concurrently
      with recording. *)

  (** {2 Counters} *)

  type counter
  (** Handle to a named process-wide counter.  Obtain once (typically at
      module initialization) with {!counter}; ticking through a handle
      is lock-free. *)

  val counter : string -> counter
  (** Registers (or looks up) the counter named [name].  Idempotent:
      the same name always yields the same cell. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val counters : unit -> (string * int) list
  (** All registered counters with current values, sorted by name. *)

  (** {2 Spans} *)

  type span = {
    sname : string;
    ts : float;  (** start, seconds on {!Clock.now} *)
    dur : float;  (** non-negative duration, seconds *)
    dom : int;  (** recording domain id *)
  }

  val span : string -> (unit -> 'a) -> 'a
  (** [span name f] runs [f ()], recording a span on the current
      domain's ring if tracing is enabled (even when [f] raises). *)

  val spans : unit -> span list
  (** Retained spans from every domain ring, sorted by start time.
      When a ring overflowed, only its newest {!ring_capacity} spans
      survive. *)

  val dropped_spans : unit -> int
  (** Spans lost to ring overflow since the last {!reset}. *)

  val ring_capacity : int
  (** Per-domain ring size, in spans. *)

  (** {2 Exporters} *)

  val to_chrome_json : unit -> string
  (** Chrome [trace_event] JSON (load in [chrome://tracing] or
      Perfetto): one complete ("ph":"X") event per span, microsecond
      timestamps, plus a flat metrics object under a top-level
      ["metrics"] key:
      [{"counters":{...},"spans":{name:{"count":..,"seconds":..}},
        "dropped_spans":..}]. *)

  val record_to_file : string -> (unit, string) result
  (** [record_to_file file] opens [file] for writing, enables tracing
      and registers an [at_exit] hook that writes {!to_chrome_json} to
      it, so the trace is written on normal exit, on [exit] and after
      an uncaught exception.  [Error msg] when [file] cannot be opened
      ([msg] is the system's ["FILE: reason"]); tracing is then left as
      it was. *)
end

(** Deterministic bulk-synchronous best-first search driver — the
    parallel node-pool engine behind {!Lp}'s branch and bound.

    Rounds pop up to [batch] best nodes (under [compare]) from one
    global priority queue, evaluate them concurrently on the domain
    pool, and merge sequentially in pop order via [expand].  Batch
    size, pop order and merge order are all independent of [jobs], so
    the search trajectory — node counts
    included — is bit-identical at every job count.  [eval] runs
    concurrently and must not write shared state; [expand] runs
    sequentially and is where incumbents move.  [stop] is polled between
    rounds.  The work is counted only by the [search.rounds] and
    [search.expanded] trace counters. *)
module Search : sig
  val run :
    ?jobs:int ->
    batch:int ->
    compare:('n -> 'n -> int) ->
    roots:'n list ->
    eval:('n -> 'r) ->
    expand:('n -> 'r -> 'n list) ->
    stop:(unit -> bool) ->
    unit ->
    unit
end
