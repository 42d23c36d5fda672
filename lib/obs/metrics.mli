(** Dependency-free metrics registry for the service stack.

    A {!t} is either the {!null} registry — every operation a no-op, so
    instrumented code pays nothing when observability is off, mirroring
    {!Aat_telemetry.Telemetry.Sink.null} — or a live registry holding
    named, optionally labeled {e counters}, {e gauges} and fixed-bucket
    {e histograms} behind one mutex (the coordinator's heartbeat loop
    snapshots while handlers update).

    {1 Determinism contract}

    A snapshot is a {e deterministic} value: series are sorted by name
    then labels, and every number renders through the {!Aat_telemetry.Jsonx}
    integer rule, so two registries fed the same updates in any order
    produce byte-identical {!Snapshot.to_json} output. Counters fed
    integer increments stay exact (no float rounding below 2{^53}).
    Metrics {e derived from timing} (lag gauges, rates) are outside the
    contract — same precedent as the [~profile] block of a flight
    record. *)

type t
(** A registry: {!null} or live. *)

val null : t
(** The no-op registry. Physical equality test via {!is_null}; every
    handle minted from it is inert. *)

val is_null : t -> bool

val create : unit -> t
(** A fresh live registry with no series. *)

(** {1 Instrument handles}

    Handles are minted once (name + labels) and updated on the hot
    path; minting the same name/labels twice yields the same underlying
    series. Labels are sorted internally — order at mint time is
    irrelevant. *)

type counter
type gauge
type histogram

val counter : t -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t -> ?labels:(string * string) list -> ?buckets:float list -> string ->
  histogram
(** [buckets] are upper bounds, sorted ascending (default powers of two
    [1; 2; 4; ...; 256]); an implicit [+Inf] bucket always exists. *)

val incr : counter -> unit
val add : counter -> float -> unit
(** Negative deltas are clamped to 0 — counters never go down. *)

val set : gauge -> float -> unit

val max_gauge : gauge -> float -> unit
(** [set g (max current v)] — for high-water marks that must merge
    order-independently. *)

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

module Snapshot : sig
  type value =
    | Counter of float
    | Gauge of float
    | Histogram of {
        bounds : float list;  (** finite upper bounds, ascending *)
        counts : int list;  (** per-bucket counts, same length, plus *)
        overflow : int;  (** the implicit [+Inf] bucket *)
        sum : float;
        count : int;
      }

  type series = { name : string; labels : (string * string) list; value : value }

  type t = series list
  (** Always sorted by [name] then [labels]; labels sorted by key. *)

  val series : ?labels:(string * string) list -> string -> value -> series
  (** Build one series with its labels normalized (sorted by key) — for
      callers assembling a snapshot from external counters. *)

  val of_list : series list -> t
  (** Sorts; merges duplicate (name, labels) keys as {!merge} does. *)

  val merge : t -> t -> t
  (** Pointwise union: counters sum, gauges take the max, histograms
      with equal bounds sum pointwise (on a bounds mismatch the left
      series wins — callers keep bucket layouts consistent). *)

  val equal : t -> t -> bool

  val to_json : t -> Aat_telemetry.Jsonx.t
  (** [{"type":"metrics-snapshot";"format_version":1;"series":[...]}] —
      deterministic bytes via {!Aat_telemetry.Jsonx.to_string}. *)

  val of_json : Aat_telemetry.Jsonx.t -> (t, string) result

  val to_prometheus : t -> string
  (** Prometheus text exposition: [# TYPE] lines, labeled samples,
      histogram [_bucket]/[_sum]/[_count] with cumulative [le] buckets
      ending at [+Inf]. *)
end

val snapshot : t -> Snapshot.t
(** Empty on {!null}. *)

(** {1 Campaign-cell accounting}

    [record_cell t payload] parses one campaign cell result — the
    [Campaign.json_of_outcome] object, or [Error _] for an engine
    error — and bumps the deterministic [campaign_*] series: cells,
    grades and statuses (classified by
    [Campaign.classify_outcome_json], the same classifier the campaign
    aggregate folds with), rounds/messages totals, injected fault counts,
    watchdog violations, max spread, and the rounds-used histogram.
    Because every update is a commutative fold of per-cell facts, the
    resulting snapshot is bit-identical for any worker count or cell
    arrival order. *)
val record_cell : t -> (Aat_telemetry.Jsonx.t, string) result -> unit

val write_atomic : path:string -> string -> unit
(** Write [path] atomically: temp file in the same directory, then
    rename — a concurrent reader sees the old or the new contents,
    never a torn file. *)
