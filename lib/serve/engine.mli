(** The serve engine: a long-running {!Cophy.Interactive} session behind
    a line-delimited JSON protocol (one request object per line, one
    response object per line).

    Operations: [statement] (observe a statement with a frequency
    delta), [recommend] (warm-started re-solve), [whatif] (INUM cost of
    a statement under the last recommendation), [stats], [quit].

    Frequencies live in a sliding window over the last [window]
    observation events (count-based: deterministic, no wall clock).
    Statements are deduplicated by canonical key; a key's weight is its
    delta mass inside the window, and zero-mass keys leave the session
    while their INUM templates stay in the keyed store.  A key is
    forgotten only once none of its events is left in the window, so a
    negative delta's eviction gives its mass back.  A [statement]
    request whose ["delta"] is present but not a number is answered
    with an error and leaves the session unchanged.  Responses are
    deterministic in the event stream except the [*_ms] latency
    fields.  [p50_ms]/[p99_ms] in [recommend] and [stats] replies are
    nearest-rank quantiles over a fixed-bucket log histogram of the
    recommend latencies: each is the upper edge of the bucket holding
    the quantile, a {!latency_edge_ms}, and [0] before the first
    recommend.  The histogram's memory is constant. *)

type t

(** [create schema] — a fresh engine with an empty session.
    [window] (default [256]) is the sliding-window capacity in events;
    [budget_fraction] (default [0.25]) the storage budget as a fraction
    of the database size; [certify] (default [true]) runs
    {!Lp.Analyze.certify} on every recommendation; [probe_budget]
    (default unlimited) caps up-front INUM probes per query — deferred
    probes resolve lazily during [recommend]/[whatif], and the [stats]
    response reports the outstanding count and certified regret bound.
    @raise Invalid_argument when [window < 1]. *)
val create :
  ?window:int ->
  ?jobs:int ->
  ?budget_fraction:float ->
  ?certify:bool ->
  ?probe_budget:int ->
  Catalog.Schema.t ->
  t

val session : t -> Cophy.Interactive.session

(** Record one observation; session work is deferred to {!flush}. *)
val observe : t -> Sqlast.Ast.statement -> float -> unit

(** Apply deferred observations: new canonical keys enter the session
    (candidate generation batched over the domain pool, INUM resolved
    through the keyed store), weights sync, zero-mass keys leave.
    Idempotent; [recommend]/[whatif]/[stats] flush implicitly. *)
val flush : t -> unit

val window_size : t -> int

(** Keys whose delta mass in the window is positive: after {!flush},
    exactly the session's statements. *)
val session_statements : t -> int

(** Warm-started re-solve; the response carries objective, bound, gap,
    the recommended indexes, cache hit rate and latency quantiles. *)
val recommend : t -> Json.t

(** INUM cost of a SELECT under the last recommendation vs. no indexes. *)
val whatif : t -> Sqlast.Ast.statement -> Json.t

val stats_response : t -> Json.t

(** Dispatch one protocol request. *)
val handle : t -> Json.t -> Json.t

(** Parse one request line and answer with one response line (never
    raises on malformed input — errors come back as [{"ok":false,...}]). *)
val handle_line : t -> string -> string

(** Longest accepted request line, in bytes. *)
val max_line_bytes : int

(** Number of buckets in the recommend-latency histogram. *)
val latency_buckets : int

(** Upper edge of histogram bucket [i] ([0 <= i < latency_buckets]), in
    milliseconds: ascending, a quarter octave apart from 1 us.  The last
    bucket also holds every slower latency. *)
val latency_edge_ms : int -> float

(** Answer request lines from [ic] on [oc], one response line each, until
    end of input or a [quit] request.  Blank lines are skipped.  A line
    longer than {!max_line_bytes} is discarded unparsed and answered
    with an [{"ok":false,...}] error, leaving the session unchanged. *)
val serve_channels : t -> in_channel -> out_channel -> unit
