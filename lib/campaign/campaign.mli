(** Declarative batch-execution campaigns over the {!Pool} worker pool.

    A campaign is a {e pure specification}: protocol, tree generator,
    input distribution, adversary family, corruption budget, repetition
    count and base seed. {!run} compiles it into [repetitions] independent
    tasks, derives a deterministic per-task seed for each ({!task_seeds} —
    splitting the base seed through the SplitMix64 stream, so the seeds
    are a pure function of [(base_seed, index)]), fans the tasks out over
    a {!Pool}, renders each cell's outcome inside its pool task
    ({!run_cell}) and folds the rendered cells in task order.

    {b Determinism contract}: everything a task does — drawing its tree,
    parties, inputs and adversary, and seeding the engine — is derived
    from its task seed alone, and aggregation happens in task index order;
    therefore every field of {!result} (and the {!write_jsonl} stream) is
    bit-identical for any [~workers], including [1]. The qcheck suite
    enforces this.

    See [docs/CAMPAIGN.md] for the full design. *)

module Spec : sig
  type size = Exactly of int | Between of int * int
      (** [Between (lo, hi)] draws uniformly from the inclusive range,
          per task. *)

  type tree_family =
    | Path_tree of size
    | Star_tree of size
    | Caterpillar_tree of { spine : size; legs : size }
    | Spider_tree of { legs : size; leg_length : size }
    | Balanced_tree of { arity : size; depth : size }
    | Random_tree of size
    | Any_tree
        (** soak's mix: a family {e and} its size drawn per task. *)

  type budget =
    | Fixed_t of int
    | Up_to_third  (** uniform in [0 .. (n-1)/3], the resilient regime *)

  type input_dist =
    | Random_vertices  (** uniform vertices of the drawn tree *)
    | Linspace_reals of float
        (** [n] reals evenly spaced across [[0, D]] *)
    | Log_uniform_reals of { log10_min : float; log10_max : float }
        (** the range [D] is drawn log-uniformly, then [n] uniform reals
            in [[0, D)] — soak's RealAA workload *)

  type adversary_family =
    | Passive
    | Random_silent
    | Random_crash
    | Tree_spoiler  (** phased RealAA spoiler over both TreeAA phases *)
    | Real_spoiler
    | Gradecast_wedge
    | Any_tree_adversary
        (** per-task mix of passive / silent / crash / tree spoiler *)
    | Any_real_adversary  (** per-task mix of passive / silent / spoiler *)
    | Synth_genome of Aat_adversary.Genome.t
        (** a synthesized strategy ([lib/synth]): the genome fully
            determines the attack, so no per-task adversary draws are
            made. Valid on every synchronous protocol (generic genomes
            only on the NR baseline) and, for protocol-agnostic genomes,
            on the native asynchronous runner, where its scheduler gene
            replaces the per-task scheduler draw. *)

  type protocol =
    | Tree_aa
    | Nr_baseline
    | Path_aa  (** requires a path-shaped [tree_family] *)
    | Known_path_aa
        (** the public path is the tree's oriented longest path *)
    | Real_aa of { eps : float }
    | Iterated_midpoint of { eps : float }
    | Async_tree_aa
        (** native async [33]-style protocol; scheduler drawn per task *)
    | Round_sim_tree_aa
        (** synchronous TreeAA lifted via [Round_sim]; scheduler drawn
            per task *)

  (** Fault injection for every task of the campaign. [Fault_plan] applies
      one fixed plan to all tasks (each task still derives its own fault
      RNG from its engine seed); [Chaos] draws a fresh random plan per task
      from the task's seed stream ({!Aat_faults.Plan.random}), so a chaos
      campaign sweeps a diverse fault landscape deterministically. *)
  type fault_mode =
    | No_faults
    | Fault_plan of Aat_faults.Plan.t
    | Chaos of { intensity : float }  (** in [[0, 1]]; [0.] = benign *)

  type t = {
    name : string;
    protocol : protocol;
    tree : tree_family;  (** ignored by the real-valued protocols *)
    n : size;
    t_budget : budget;
    inputs : input_dist;
    adversary : adversary_family;
    faults : fault_mode;
    watchdogs : bool;
        (** install the standard invariant watchdog catalog per run *)
    repetitions : int;
    base_seed : int;
  }

  val protocol_label : protocol -> string

  val sync_protocol : protocol -> bool
  (** Whether the protocol runs on the synchronous engine (everything but
      the two async runners). *)

  val validate : t -> (unit, string) result
  (** Static checks: repetitions non-negative, adversary family compatible
      with the protocol's wire type, input distribution compatible with
      the protocol's value space, fault plan structurally valid and
      engine-compatible ([Duplicate]/[Delay] are async-only), chaos
      intensity in [[0, 1]]. *)
end

type task_result = {
  task : int;  (** task index, [0 .. repetitions-1] *)
  task_seed : int;  (** the split seed the task derived everything from *)
  result : (Runner.outcome, string) Stdlib.result;
      (** [Error] carries [Printexc.to_string] of an exception raised
          during task {e instantiation}; runs themselves never raise —
          liveness timeouts and engine errors arrive as structured
          {!Runner.status} values inside [Ok] outcomes *)
}
(** One typed cell, for drivers that run {!instantiate}d tasks themselves
    (the repository benchmark's traced pass). {!fold_task} and
    {!json_of_task_result} read it through {!json_of_outcome}. *)

type aggregate = {
  tasks : int;
  violations : int;
      (** tasks graded [Violated] (genuine in-model failures), plus
          errored tasks; [Excused] failures count under [excused] only *)
  errors : int;  (** tasks that failed to instantiate *)
  timeouts : int;  (** tasks whose run ended in [Timed_out] *)
  engine_errors : int;  (** tasks whose run ended in [Errored] *)
  excused : int;  (** tasks whose failed verdict was excused *)
  total_rounds : int;
  total_honest_messages : int;
  total_adversary_messages : int;
  max_spread : float option;
      (** across real-valued tasks; [None] if no task reported one *)
}

type cell = (Aat_telemetry.Jsonx.t, string) Stdlib.result
(** The one campaign cell form: the {!json_of_outcome} rendering of the
    task's outcome, or the instantiation error text. {!run}, the campaign
    service, the aggregate fold, the stream writer, the flight recorder
    and the metrics all read cells in this form. *)

type result = {
  spec : Spec.t;
  cells : cell array;  (** in task order *)
  aggregate : aggregate;  (** {!fold_outcome_json} over [cells] *)
}

val task_seeds : base_seed:int -> count:int -> int array
(** The per-task seed schedule: seed [i] is the [(i+1)]-th output of the
    SplitMix64 stream seeded with [base_seed], shifted to a non-negative
    OCaml int. Pure; independent of worker count by construction. *)

val split_seed : base:int -> index:int -> int
(** [split_seed ~base ~index = (task_seeds ~base_seed:base
    ~count:(index+1)).(index)] — for deriving families of related base
    seeds (soak derives one per protocol family). *)

val instantiate : Spec.t -> task_seed:int -> Runner.t * int
(** Compile one task: draw tree / parties / inputs / adversary from the
    task seed and return the runner plus the engine seed to run it with.
    Exposed for tests and for callers that want custom execution (e.g.
    attaching a per-task telemetry sink). Raises [Invalid_argument] on
    spec/protocol mismatches (see {!Spec.validate}). *)

val run_cell :
  ?telemetry:(unit -> Aat_telemetry.Telemetry.Sink.t option) ->
  ?profile:bool ->
  Spec.t ->
  task_seed:int ->
  cell
(** One cell: {!instantiate}, run with the derived engine seed, render
    with {!json_of_outcome}. An instantiation exception becomes [Error]
    (its [Printexc.to_string]). [telemetry] is asked for the run's sink
    after instantiation succeeds; [profile] (default [false]) adds the
    outcome's ["profile"] block. {!run}'s pool tasks and the campaign
    service's workers both call this. *)

val run :
  ?workers:int ->
  ?telemetry:(task:int -> Aat_telemetry.Telemetry.Sink.t option) ->
  ?profile:bool ->
  Spec.t ->
  result
(** Execute the campaign. [workers] defaults to [1]; results are
    bit-identical for every worker count. [telemetry], if given, supplies
    a per-task sink ([task] is the task index) — sinks may be invoked from
    pool worker domains concurrently, so distinct tasks must get distinct
    (or domain-safe) sinks. [profile] (default [false]) adds each
    outcome's {!Runner.stage_profile} as its ["profile"] block; the timing
    values themselves are wall-clock measurements and sit outside the
    determinism contract. *)

val seeded_cells : result -> (int * int * cell) list
(** [(task, task_seed, cell)] for every cell, in task order. *)

val empty_aggregate : aggregate

val fold_task : aggregate -> task_result -> aggregate
(** [fold_outcome_json] on the rendered typed cell. *)

(** How one cell's outcome reads in the aggregate and the metrics. *)
type cell_grade = Passed | Violated | Excused

val cell_grade_label : cell_grade -> string
(** ["passed"] / ["violated"] / ["excused"]. *)

val classify_outcome_json : Aat_telemetry.Jsonx.t -> cell_grade * string
(** The one classifier of a {!json_of_outcome} payload, shared by
    {!fold_outcome_json}, the flight recorder's failing-cell rule and
    the observability layer's metrics fold:
    the cell's grade and its status label (["completed"] when the
    payload carries none). [Excused] when the payload's grade is
    excused; otherwise [Passed] only when [termination], [validity] and
    [agreement] are all present and true — a missing field counts as
    failed. *)

val fold_outcome_json : aggregate -> cell -> aggregate
(** The one aggregate fold: fold a {!cell} — fresh from {!run_cell},
    shipped over the service wire or resumed from a flight record — into
    the aggregate. Callers fold in task index order, so the aggregate
    never depends on completion order. *)

val json_of_outcome : Runner.outcome -> Aat_telemetry.Jsonx.t
(** One task outcome as the ["task"]-line payload (without the task/seed
    envelope): status, verdict, grade, headline numbers, fault and
    watchdog accounting, and — on profiled runs — the stage profile.
    Exposed for the observability layer's outcome digests. *)

val without_profile : Aat_telemetry.Jsonx.t -> Aat_telemetry.Jsonx.t
(** The outcome minus its wall-clock ["profile"] block: what the outcome
    digest hashes and what service workers ship. *)

val json_of_task_line :
  task:int -> task_seed:int -> cell -> Aat_telemetry.Jsonx.t
(** The one ["task"]-line renderer. A cell parsed back from the service
    wire renders to the same bytes, because [Jsonx] parse/render
    round-trips exactly. *)

val json_of_task_result : task_result -> Aat_telemetry.Jsonx.t
(** [json_of_task_line] on the rendered typed cell. *)

val json_header : Spec.t -> Aat_telemetry.Jsonx.t
(** The ["campaign-start"] header object. Carries the telemetry
    [format_version] gate; deliberately omits the worker count — the
    stream is byte-identical however the campaign was scheduled. *)

val json_footer : aggregate -> Aat_telemetry.Jsonx.t
(** The ["campaign-stop"] footer object for an aggregate. *)

val jsonl_lines : result -> Aat_telemetry.Jsonx.t list
(** The campaign result stream: one ["campaign-start"] header object, one
    ["task"] object per task in task order, one ["campaign-stop"] footer
    with the aggregate. *)

val write_jsonl : out_channel -> result -> unit
(** {!jsonl_lines}, one JSON object per line; flushes, does not close. *)

val jsonl_string : result -> string
