(* perfbench: the repository benchmark.

   A single-process closed loop: one client runs executions back to back
   for --seconds and times, from outside, calls into each layer's public
   functions: [Engine.run], the [Protocol.t] send/receive fields, the
   [Adversary.t] corrupt_more/deliver fields, the verdict checkers,
   [Campaign.instantiate]/[run]/[fold_task]/[json_of_task_result],
   [Runner.t.run], [Jsonx.to_string] and [Service.run]. Inputs are a pure
   function of --seed; every execution is checked.

   With --trace 0 it measures the end-to-end metrics untraced. With
   --trace 1 it alternates untraced and traced executions and reports the
   per-layer breakdown of the traced execution with the median run time.

   The last line of stdout is one JSON document with every measured value
   (perfbench/run.py turns it into the benchmark's result line). *)

open Treeagree
module Json = Aat_telemetry.Jsonx

let now = Service_clock.now

(* ------------------------------------------------------------------ *)
(* statistics and reporting *)

let sorted xs = Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Index (in [xs]) of the lower-median element. *)
let median_index xs =
  let idx = List.mapi (fun i x -> (x, i)) xs |> List.sort compare in
  snd (List.nth idx ((List.length xs - 1) / 2))

(* The highest percentile with at least ten samples beyond it, once that
   is at least the median (21 samples or more). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 20 then None else Some (100 * (n - 10) / n, a.(n - 11))

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  tail : (int * float) option;
}

let timing name unit_ xs =
  { name; value = median xs; unit_; samples = List.length xs; tail = tail xs }

let exact name unit_ value = { name; value; unit_; samples = 1; tail = None }
let count name v = exact name "count" (float_of_int v)

let json_of_metric m =
  Json.Obj
    ([
       ("name", Json.Str m.name);
       ("value", Json.Num m.value);
       ("unit", Json.Str m.unit_);
       ("samples", Json.Num (float_of_int m.samples));
     ]
    @
    match m.tail with
    | None -> []
    | Some (p, v) -> [ ("tail_pct", Json.Num (float_of_int p)); ("tail", Json.Num v) ])

(* Every execution is checked; a failed check fails the execution. *)
let attempted = ref 0
let failed = ref 0
let problems = ref []

let record_execution ?(weight = 1) checks =
  attempted := !attempted + weight;
  let bad = List.filter_map (fun (ok, what) -> if ok then None else Some what) checks in
  if bad <> [] then begin
    failed := !failed + weight;
    if List.length !problems < 20 then problems := String.concat "; " bad :: !problems
  end

let guard f =
  try Some (f ())
  with e ->
    record_execution [ (false, "raised " ^ Printexc.to_string e) ];
    None

(* ------------------------------------------------------------------ *)
(* one single-run execution *)

type sample = {
  setup_s : float;  (** execution start to the first protocol send *)
  run_s : float;  (** first send to the checked verdict *)
  engine_setup_s : float;  (** [Engine.run] call to the first send *)
  alloc_mb : float;
  minor_gcs : int;
  major_gcs : int;
  rounds : int;
  letters : int;
  adversary_letters : int;
  rejected : int;
  verdict_ok : bool;
  fingerprint : Digest.t;
}

let alloc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words
let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6
let start () = (Gc.quick_stat (), now ())

(* Raised by the first send of a set-up probe, with the set-up time. *)
exception First_send of float

(* Run [f] in a forked child and return the value it passes to [reply]
   (or returns), which ends the child at once. Work in a child leaves this
   process's heap, and so its peak, untouched. OCaml 5 forbids [Unix.fork]
   in a process that has spawned a domain, so this process never spawns
   one: [Campaign.run ~workers:2] only ever runs in a child. *)
let spawn (type a) (f : reply:(a -> unit) -> a) =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let send (v : (a, string) result) =
        Marshal.to_channel oc v [];
        flush oc;
        Unix._exit 0
      in
      send (try Ok (f ~reply:(fun v -> send (Ok v))) with e -> Error (Printexc.to_string e))
  | pid ->
      Unix.close w;
      (pid, Unix.in_channel_of_descr r)

let collect (type a) (pid, ic) : (a, string) result =
  let v : (a, string) result =
    try Marshal.from_channel ic with End_of_file -> Error "child died without a result"
  in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  v

let in_child f = collect (spawn f)

(* Machine-speed calibration. On a shared 2-core VM the machine's speed
   drifted by 20-40% over minutes, more than any bound, and no run length
   averaged that out.
   So each timed execution is paired with the time of a fixed kernel
   measured just after it (which tracks the execution's speed better than
   one measured just before it), and timings are reported in seconds at
   reference speed: [raw *. reference_kernel_s /. kernel]. The kernel
   (allocation, polymorphic compare, hashing) uses nothing from the
   library, so no change to the program moves it. It runs in child
   processes after a full major GC, so the execution's garbage does not
   slow it and its own allocation does not count toward the measured heap;
   for a workload that keeps both cores busy it runs on both at once and
   the mean is used. *)
let reference_kernel_s = 0.040

let calibration_kernel () =
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let t0 = now () in
  let l = List.init 60_000 (fun _ -> (next () mod 1000, float_of_int (next ()))) in
  let h = Hashtbl.create 1024 in
  List.iter
    (fun (k, _) -> Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    (List.sort compare l);
  ignore (Sys.opaque_identity (Hashtbl.length h));
  now () -. t0

let calibrate ?(cores = 1) () =
  let kernel ~reply:_ =
    Gc.full_major ();
    median (List.init 5 (fun _ -> calibration_kernel ()))
  in
  let times =
    List.init cores (fun _ -> spawn kernel)
    |> List.map (fun child ->
           match collect child with Ok k -> k | Error e -> failwith ("calibration: " ^ e))
  in
  List.fold_left ( +. ) 0. times /. float_of_int cores

let at_reference ~kernel raw = raw *. reference_kernel_s /. kernel

(* Run [f] at least once, then until [deadline]. *)
let until deadline f =
  f ();
  while now () < deadline do
    f ()
  done

(* Run one execution whose set-up began at [start ()]. Untraced, the
   protocol is wrapped only to timestamp the first send. Traced, every
   send/receive and every call of a non-passive adversary becomes a span;
   passive adversaries stay unwrapped so the engine keeps its streamed
   send path. A [probe] stops the execution at its first send by raising
   [First_send]. *)
let execute (gc0, t0) ?tracer ?(probe = false) ~n ~t ~max_rounds ~seed ~protocol ~adversary
    ~check () =
  let first_send = ref nan in
  let protocol, adversary, spans =
    match tracer with
    | None when probe ->
        let send ~round:_ ~self:_ _ = raise (First_send (now () -. t0)) in
        ({ protocol with Protocol.send }, adversary, None)
    | None ->
        let send ~round ~self st =
          if Float.is_nan !first_send then first_send := now ();
          protocol.Protocol.send ~round ~self st
        in
        ({ protocol with Protocol.send }, adversary, None)
    | Some tr ->
        let setup = Tracer.reserve tr ~name:"setup" () in
        let engine_setup = Tracer.reserve tr ~name:"engine.setup" ~parent:setup () in
        let run = Tracer.reserve tr ~name:"run" () in
        let engine = Tracer.reserve tr ~name:"engine" ~parent:run () in
        let span name round a = ignore (Tracer.add tr ~name ~parent:engine ~round a (now ())) in
        let send ~round ~self st =
          let a = now () in
          if Float.is_nan !first_send then first_send := a;
          let out = protocol.Protocol.send ~round ~self st in
          span "protocol.send" round a;
          out
        in
        let receive ~round ~self ~inbox st =
          let a = now () in
          let st = protocol.Protocol.receive ~round ~self ~inbox st in
          span "protocol.receive" round a;
          st
        in
        let adversary =
          if adversary.Adversary.passive then adversary
          else
            let corrupt_more (v : _ Adversary.view) =
              let a = now () in
              let out = adversary.Adversary.corrupt_more v in
              span "adversary.corrupt" v.round a;
              out
            in
            let deliver (v : _ Adversary.view) =
              let a = now () in
              let out = adversary.Adversary.deliver v in
              span "adversary.deliver" v.round a;
              out
            in
            { adversary with Adversary.corrupt_more; deliver }
        in
        ( { protocol with Protocol.send; receive },
          adversary,
          Some (tr, setup, engine_setup, run, engine) )
  in
  let t_call = now () in
  let report = Engine.run ~n ~t ~max_rounds ~seed ~protocol ~adversary () in
  let t_ret = now () in
  let t_check = now () in
  let verdict = check report in
  let t_end = now () in
  let gc1 = Gc.quick_stat () in
  let fs = if Float.is_nan !first_send then t_call else !first_send in
  Option.iter
    (fun (tr, setup, engine_setup, run, engine) ->
      Tracer.set tr setup t0 fs;
      Tracer.set tr engine_setup t_call fs;
      Tracer.set tr run fs t_end;
      Tracer.set tr engine fs t_ret;
      ignore (Tracer.add tr ~name:"verdict" ~parent:run t_check t_end))
    spans;
  let r = report in
  {
    setup_s = fs -. t0;
    run_s = t_end -. fs;
    engine_setup_s = fs -. t_call;
    alloc_mb = mb_of_words (alloc_words gc1 -. alloc_words gc0);
    minor_gcs = gc1.minor_collections - gc0.minor_collections;
    major_gcs = gc1.major_collections - gc0.major_collections;
    rounds = r.Report.rounds_used;
    letters = r.Report.honest_messages;
    adversary_letters = r.Report.adversary_messages;
    rejected = r.Report.rejected_forgeries;
    verdict_ok = Verdict.all_ok verdict;
    fingerprint =
      Digest.string
        (Marshal.to_string
           ( r.Report.outputs,
             r.Report.corrupted,
             r.Report.rounds_used,
             r.Report.honest_messages,
             r.Report.adversary_messages )
           []);
  }

(* ------------------------------------------------------------------ *)
(* single-run workloads *)

type single = {
  schedule : int;  (** rounds of the protocol's fixed schedule *)
  pinned_letters : int;  (** exact honest-letter count of every execution *)
  vote_round : int -> bool;  (** third round of a gradecast batch *)
  exec : ?tracer:Tracer.t -> ?probe:bool -> unit -> sample;
}

(* TreeAA on the 10-vertex star, inputs drawn from the seed. The schedule
   is PathsFinder's RealAA followed by the projection RealAA, each a run
   of 3-round gradecast batches. *)
let tree_aa ~n ~spoiler seed =
  let t = (n - 1) / 3 in
  let schedule = Tree_aa.rounds ~tree:(Generate.star 9) in
  let first = Paths_finder.rounds ~tree:(Generate.star 9) in
  let exec ?tracer ?probe () =
    let clock = start () in
    let tree = Generate.star 9 in
    let rng = Rng.create seed in
    let inputs = Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree)) in
    let protocol = Tree_aa.protocol ~tree ~inputs:(Array.get inputs) ~t in
    let adversary =
      if spoiler then Aat_bench_tables.spoiler_for_tree ~tree ~t
      else Adversary.passive "none"
    in
    execute clock ?tracer ?probe ~n ~t ~max_rounds:schedule ~seed ~protocol ~adversary
      ~check:(Tree_verdict.check_report ~tree ~inputs ~value:Fun.id)
      ()
  in
  (* Every honest party sends to every party in every round; the spoiler
     corrupts its t parties before round 1. *)
  let honest = if spoiler then n - t else n in
  {
    schedule;
    pinned_letters = honest * n * schedule;
    vote_round = (fun r -> (if r <= first then r else r - first) mod 3 = 0);
    exec;
  }

let range = 1000.

(* Naive iterated midpoint: one all-to-all round per iteration, no
   gradecast. A passive run agrees exactly, so any eps is checkable; the
   halving bound is used. *)
let midpoint ~n ~iterations seed =
  let t = (n - 1) / 3 in
  let exec ?tracer ?probe () =
    let clock = start () in
    let rng = Rng.create seed in
    let inputs = Array.init n (fun _ -> Rng.float rng range) in
    let protocol = Iterated_midpoint.naive ~inputs:(Array.get inputs) ~t ~iterations in
    execute clock ?tracer ?probe ~n ~t ~max_rounds:iterations ~seed ~protocol
      ~adversary:(Adversary.passive "none")
      ~check:
        (Verdict.real_of_report
           ~eps:(range /. (2. ** float_of_int iterations))
           ~inputs:(Array.get inputs)
           ~value:(fun (r : Iterated_midpoint.result) -> r.value))
      ()
  in
  {
    schedule = iterations;
    pinned_letters = n * n * iterations;
    vote_round = (fun _ -> false);
    exec;
  }

let check_sample w ~reference s =
  record_execution
    [
      (s.verdict_ok, "verdict failed");
      (s.rounds = w.schedule, Printf.sprintf "rounds %d, schedule %d" s.rounds w.schedule);
      ( s.letters = w.pinned_letters,
        Printf.sprintf "honest letters %d, pinned %d" s.letters w.pinned_letters );
      (s.fingerprint = reference.fingerprint, "outputs differ from the reference execution");
    ]

let peak_heap_mb () = mb_of_words (float_of_int (Gc.quick_stat ()).top_heap_words)

(* Untraced executions until the deadline, each followed by set-up probes;
   one untimed warm-up execution first, which is also the reference the
   others must reproduce. *)
let single_end_to_end w ~seconds =
  match guard (fun () -> w.exec ()) with
  | None -> []
  | Some reference ->
      check_sample w ~reference reference;
      let samples = ref [] and setups = ref [] in
      until (now () +. seconds) (fun () ->
          let sample = guard (fun () -> w.exec ()) in
          let kernel = calibrate () in
          Option.iter
            (fun s ->
              check_sample w ~reference s;
              samples := (s, kernel) :: !samples;
              setups := (s.setup_s, kernel) :: !setups)
            sample;
          for _ = 1 to 5 do
            match w.exec ~probe:true () with
            | _ -> record_execution [ (false, "set-up probe ran to completion") ]
            | exception First_send s -> setups := (s, kernel) :: !setups
            | exception e -> record_execution [ (false, "set-up probe raised " ^ Printexc.to_string e) ]
          done);
      let scaled xs = List.map (fun (x, kernel) -> at_reference ~kernel x) xs in
      let runs = List.map (fun (s, kernel) -> (s.run_s, kernel)) !samples in
      [
        timing "setup_s" "s" (scaled !setups);
        timing "run_s" "s" (scaled runs);
        (* An execution's allocation is deterministic but drifts by ~0.02%
           with the GC's state from one execution to the next, so the
           median over a timed number of executions is not; the first
           timed execution's is. *)
        exact "alloc_mb" "MB"
          (match List.rev !samples with [] -> nan | (s, _) :: _ -> s.alloc_mb);
        exact "peak_heap_mb" "MB" (peak_heap_mb ());
        timing "wall.setup_s" "s" (List.map fst !setups);
        timing "wall.run_s" "s" (List.map fst runs);
        timing "calibration.kernel_s" "s" (List.map snd runs);
      ]

(* ------------------------------------------------------------------ *)
(* per-layer metrics from one traced execution *)

(* Every per-layer metric, from the spans of the breakdown execution plus
   values the caller measured around it; metrics a workload does not
   exercise read 0. The self times listed in [partition], plus
   [trace.unattributed_s], add up to [trace.run_s]. *)
let partition =
  [
    ("engine.self_s", "engine");
    ("protocol.send_s", "protocol.send");
    ("protocol.receive_s", "protocol.receive");
    ("adversary.deliver_s", "adversary.deliver");
    ("adversary.corrupt_s", "adversary.corrupt");
    ("verdict.check_s", "verdict");
    ("campaign.instantiate_s", "campaign.instantiate");
    ("campaign.run_s", "campaign.run");
    ("campaign.fold_s", "campaign.fold");
    ("jsonx.render_s", "jsonx.render");
  ]

type layer_inputs = {
  tracer : Tracer.t;
  vote_round : int -> bool;
  untraced_run_s : float list;
  traced_run_s : float list;
  engine_setup_s : float;
  letters : int;
  adversary_letters : int;
  rejected : int;
  minor_gcs : int;
  major_gcs : int;
  cells : int;
  excused : int;
  dropped : int;
  jsonl_bytes : int;
  service_overhead_s : float;
  manifest : Service.manifest option;
}

let per_layer i =
  let tr = i.tracer in
  let self = Tracer.self_times tr in
  let run_span = Tracer.total tr ~keep:(fun name _ -> name = "run") in
  let protocol_calls =
    Tracer.count tr ~name:"protocol.send" + Tracer.count tr ~name:"protocol.receive"
  in
  let cell_ms = List.map (fun d -> d *. 1e3) (Tracer.durations tr ~name:"cell") in
  let pct p =
    match cell_ms with
    | [] -> 0.
    | xs ->
        let a = sorted xs in
        a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a))))
  in
  let manifest f = match i.manifest with None -> 0 | Some m -> f m in
  let letters = i.letters + i.adversary_letters in
  List.map (fun (metric, span) -> exact metric "s" (self span)) partition
  @ [
      exact "trace.unattributed_s" "s" (self "run" +. self "cell");
      exact "trace.run_s" "s" run_span;
      exact "trace.untraced_run_s" "s" (median i.untraced_run_s);
      exact "trace.overhead_s" "s" (median i.traced_run_s -. median i.untraced_run_s);
      count "trace.spans" (Tracer.length tr);
      exact "engine.setup_s" "s" i.engine_setup_s;
      exact "engine.ns_per_letter" "ns"
        (if letters = 0 then 0. else self "engine" *. 1e9 /. float_of_int letters);
      count "engine.letters" i.letters;
      count "engine.adversary_letters" i.adversary_letters;
      count "engine.rejected_forgeries" i.rejected;
      count "protocol.calls" protocol_calls;
      exact "gradecast.vote_s" "s"
        (Tracer.total tr ~keep:(fun name round ->
             (name = "protocol.send" || name = "protocol.receive") && i.vote_round round));
      count "adversary.calls"
        (Tracer.count tr ~name:"adversary.deliver" + Tracer.count tr ~name:"adversary.corrupt");
      exact "campaign.cell_p50_ms" "ms" (pct 0.5);
      exact "campaign.cell_p99_ms" "ms" (pct 0.99);
      count "jsonx.bytes" i.jsonl_bytes;
      exact "faults.excused_ratio" "ratio"
        (if i.cells = 0 then 0. else float_of_int i.excused /. float_of_int i.cells);
      count "faults.dropped" i.dropped;
      exact "service.overhead_s" "s" i.service_overhead_s;
      count "service.worker_restarts" (manifest (fun m -> m.Service.worker_restarts));
      count "service.requeued_shards" (manifest (fun m -> m.Service.requeued_shards));
      count "service.protocol_errors" (manifest (fun m -> m.Service.protocol_errors));
      count "gc.minor_collections" i.minor_gcs;
      count "gc.major_collections" i.major_gcs;
    ]

let single_per_layer w ~seconds =
  match guard (fun () -> w.exec ()) with
  | None -> ([], None)
  | Some reference ->
      check_sample w ~reference reference;
      let untraced = ref [] and traced = ref [] in
      until (now () +. seconds) (fun () ->
          Option.iter
            (fun s ->
              check_sample w ~reference s;
              untraced := s :: !untraced)
            (guard (fun () -> w.exec ()));
          let tracer = Tracer.create () in
          Option.iter
            (fun s ->
              check_sample w ~reference s;
              traced := (s, tracer) :: !traced)
            (guard (fun () -> w.exec ~tracer ())));
      let untraced = List.rev !untraced and traced = List.rev !traced in
      if untraced = [] || traced = [] then ([], None)
      else
        let u = List.nth untraced (median_index (List.map (fun s -> s.run_s) untraced)) in
        let s, tracer = List.nth traced (median_index (List.map (fun (s, _) -> s.run_s) traced)) in
        ( per_layer
            {
              tracer;
              vote_round = w.vote_round;
              untraced_run_s = List.map (fun s -> s.run_s) untraced;
              traced_run_s = List.map (fun (s, _) -> s.run_s) traced;
              engine_setup_s = s.engine_setup_s;
              letters = s.letters;
              adversary_letters = s.adversary_letters;
              rejected = s.rejected;
              minor_gcs = u.minor_gcs;
              major_gcs = u.major_gcs;
              cells = 0;
              excused = 0;
              dropped = 0;
              jsonl_bytes = 0;
              service_overhead_s = 0.;
              manifest = None;
            },
          Some tracer )

(* ------------------------------------------------------------------ *)
(* the campaign workload *)

let grid_spec seed =
  {
    Campaign.Spec.name = "perfbench-grid";
    protocol = Campaign.Spec.Tree_aa;
    tree = Campaign.Spec.Any_tree;
    n = Campaign.Spec.Between (4, 13);
    t_budget = Campaign.Spec.Up_to_third;
    inputs = Campaign.Spec.Random_vertices;
    adversary = Campaign.Spec.Any_tree_adversary;
    faults = Campaign.Spec.Chaos { intensity = 0.5 };
    watchdogs = true;
    repetitions = 3000;
    base_seed = seed;
  }

type leg = {
  seconds : float;  (** spec to JSONL *)
  to_first_cell : float;
  jsonl : string;
  aggregate : Campaign.aggregate;
  alloc_mb : float;
  minor_gcs : int;
  major_gcs : int;
}

let in_process_leg ~workers spec =
  let gc0 = Gc.quick_stat () in
  let first = Atomic.make None in
  let mark ~task:_ =
    if Atomic.get first = None then ignore (Atomic.compare_and_set first None (Some (now ())));
    None
  in
  let t0 = now () in
  let r = Campaign.run ~workers ~telemetry:mark spec in
  let jsonl = Campaign.jsonl_string r in
  let t1 = now () in
  let gc1 = Gc.quick_stat () in
  {
    seconds = t1 -. t0;
    to_first_cell = Option.value ~default:t1 (Atomic.get first) -. t0;
    jsonl;
    aggregate = r.Campaign.aggregate;
    alloc_mb = mb_of_words (alloc_words gc1 -. alloc_words gc0);
    minor_gcs = gc1.minor_collections - gc0.minor_collections;
    major_gcs = gc1.major_collections - gc0.major_collections;
  }

(* A set-up probe: a child that starts the in-process leg and ends at its
   first cell. *)
let grid_setup_probe spec =
  in_child (fun ~reply ->
      let fired = Atomic.make false in
      let t0 = now () in
      let first ~task:_ =
        if Atomic.compare_and_set fired false true then reply (now () -. t0);
        None
      in
      ignore (Campaign.run ~workers:2 ~telemetry:first spec);
      nan)

(* The service leg, in a child so that its coordinator's peak heap can be
   read per leg. *)
let service_leg spec =
  in_child (fun ~reply:_ ->
      let t0 = now () in
      match Service.run ~workers:2 spec with
      | Error e -> failwith e
      | Ok r ->
          let jsonl = Service.jsonl_string r in
          (now () -. t0, jsonl, r.Service.aggregate, r.Service.manifest, peak_heap_mb ()))

(* A campaign leg counts each of its cells as an execution: violated or
   errored cells fail, and a stream that differs from the reference fails
   every cell of the leg. *)
let check_leg ~what ~reference (jsonl, (a : Campaign.aggregate)) =
  let bad_cells = a.violations + a.errors in
  record_execution ~weight:(a.tasks - bad_cells) [ (jsonl = reference, what ^ " JSONL differs") ];
  if bad_cells > 0 then
    record_execution ~weight:bad_cells
      [ (false, Printf.sprintf "%s: %d violations, %d errors" what a.violations a.errors) ]

let child_leg spec ~reference =
  match in_child (fun ~reply:_ -> in_process_leg ~workers:2 spec) with
  | Error e ->
      record_execution ~weight:spec.Campaign.Spec.repetitions [ (false, "in-process leg: " ^ e) ];
      None
  | Ok leg ->
      check_leg ~what:"in-process" ~reference:(Option.value reference ~default:leg.jsonl)
        (leg.jsonl, leg.aggregate);
      Some leg

let service_checked spec ~reference =
  match service_leg spec with
  | Error e ->
      record_execution ~weight:spec.Campaign.Spec.repetitions [ (false, "service: " ^ e) ];
      None
  | Ok ((_, jsonl, aggregate, _, _) as r) ->
      check_leg ~what:"service" ~reference (jsonl, aggregate);
      Some r

(* One execution of the workload is an in-process leg then a service leg,
   followed by set-up probes on grids derived from the seed, so that
   set-up is not the cost of one seed's first cell. The first execution is
   an untimed warm-up (the first forked leg runs cold) whose in-process
   stream is the reference every later leg must reproduce byte for byte.
   The peak heap is the service coordinator's. *)
let grid_end_to_end spec ~seconds =
  match child_leg spec ~reference:None with
  | None -> []
  | Some first ->
      let reference = first.jsonl in
      ignore (service_checked spec ~reference);
      let legs = ref [] and setups = ref [] and probes = ref 0 in
      until (now () +. seconds) (fun () ->
          match child_leg spec ~reference:(Some reference) with
          | None -> ()
          | Some leg -> (
              match service_checked spec ~reference with
              | None -> ()
              | Some (service_s, _, _, _, heap) ->
                  let kernel = calibrate ~cores:2 () in
                  legs := (leg, service_s, heap, kernel) :: !legs;
                  setups := (leg.to_first_cell, kernel) :: !setups;
                  for _ = 1 to 5 do
                    incr probes;
                    let base_seed = Campaign.split_seed ~base:spec.base_seed ~index:!probes in
                    match grid_setup_probe { spec with base_seed } with
                    | Ok s -> setups := (s, kernel) :: !setups
                    | Error e -> record_execution [ (false, "set-up probe: " ^ e) ]
                  done));
      let cells = float_of_int spec.Campaign.Spec.repetitions in
      let field f = List.map f !legs in
      let run (l, s, _, _) = l.seconds +. s in
      [
        timing "setup_s" "s" (List.map (fun (x, kernel) -> at_reference ~kernel x) !setups);
        timing "run_s" "s" (field (fun ((_, _, _, kernel) as l) -> at_reference ~kernel (run l)));
        timing "alloc_mb" "MB" (field (fun (l, _, _, _) -> l.alloc_mb));
        timing "peak_heap_mb" "MB" (field (fun (_, _, heap, _) -> heap));
        timing "wall.setup_s" "s" (List.map fst !setups);
        timing "wall.run_s" "s" (field run);
        timing "calibration.kernel_s" "s" (field (fun (_, _, _, k) -> k));
        timing "wall.cells_per_s" "1/s" (field (fun (l, _, _, _) -> cells /. l.seconds));
        timing "wall.service_cells_per_s" "1/s" (field (fun (_, s, _, _) -> cells /. s));
      ]

(* The serial traced pass: the steps of [Campaign.run ~workers:1] and
   [Campaign.jsonl_string], each call a span. [Runner.t.run] is called with
   [~profile:true] so its own stage profile splits engine rounds and verdict
   checks out of the cell; the profile is stripped before rendering, so the
   stream must equal the untraced one. *)
let traced_pass spec tracer =
  let span ?parent name f =
    let a = now () in
    let v = f () in
    ignore (Tracer.add tracer ~name ?parent a (now ()));
    v
  in
  let run = Tracer.reserve tracer ~name:"run" () in
  let t0 = now () in
  let buf = Buffer.create (1 lsl 20) in
  let render j =
    span ~parent:run "jsonx.render" (fun () ->
        Buffer.add_string buf (Json.to_string (Lazy.force j));
        Buffer.add_char buf '\n')
  in
  render (lazy (Campaign.json_header spec));
  let aggregate = ref Campaign.empty_aggregate and dropped = ref 0 in
  Array.iteri
    (fun task task_seed ->
      let cell = Tracer.reserve tracer ~name:"cell" ~parent:run () in
      let a = now () in
      let instance =
        span ~parent:cell "campaign.instantiate" (fun () ->
            try Ok (Campaign.instantiate spec ~task_seed)
            with e -> Error (Printexc.to_string e))
      in
      let result =
        Result.map
          (fun (runner, engine_seed) ->
            let b = now () in
            let o = runner.Runner.run ~seed:engine_seed ~profile:true () in
            let c = now () in
            let parent = Tracer.add tracer ~name:"campaign.run" ~parent:cell b c in
            Option.iter
              (fun (p : Runner.stage_profile) ->
                let e0 = b +. (float_of_int p.setup_ns *. 1e-9) in
                let e1 = e0 +. (float_of_int p.rounds_ns *. 1e-9) in
                let v1 = e1 +. (float_of_int p.checks_ns *. 1e-9) in
                ignore (Tracer.add tracer ~name:"engine" ~parent e0 e1);
                ignore (Tracer.add tracer ~name:"verdict" ~parent e1 v1))
              o.Runner.profile;
            dropped := !dropped + o.Runner.faults.Report.dropped;
            { o with Runner.profile = None })
          instance
      in
      Tracer.set tracer cell a (now ());
      let tr = { Campaign.task; task_seed; result } in
      render (lazy (Campaign.json_of_task_result tr));
      span ~parent:run "campaign.fold" (fun () -> aggregate := Campaign.fold_task !aggregate tr))
    (Campaign.task_seeds ~base_seed:spec.Campaign.Spec.base_seed ~count:spec.repetitions);
  render (lazy (Campaign.json_footer !aggregate));
  Tracer.set tracer run t0 (now ());
  (Buffer.contents buf, !aggregate, !dropped, now () -. t0)

(* Per iteration: the two timed legs (for the service overhead), an
   untraced serial leg in this process ([~workers:1] spawns no domain) and
   the traced serial pass it is compared with. *)
let grid_per_layer spec ~seconds =
  match child_leg spec ~reference:None with
  | None -> ([], None)
  | Some first ->
      let reference = first.jsonl in
      let overheads = ref [] and manifests = ref [] in
      let untraced = ref [] and traced = ref [] in
      until (now () +. seconds) (fun () ->
          let leg = child_leg spec ~reference:(Some reference) in
          (match (leg, service_checked spec ~reference) with
          | Some leg, Some (service_s, _, _, manifest, _) ->
              overheads := (service_s -. leg.seconds) :: !overheads;
              manifests := manifest :: !manifests
          | _ -> ());
          Option.iter
            (fun leg ->
              check_leg ~what:"serial" ~reference (leg.jsonl, leg.aggregate);
              untraced := leg :: !untraced)
            (guard (fun () -> in_process_leg ~workers:1 spec));
          let tracer = Tracer.create () in
          Option.iter
            (fun (jsonl, aggregate, dropped, seconds) ->
              check_leg ~what:"traced" ~reference (jsonl, aggregate);
              traced := (tracer, aggregate, dropped, seconds, String.length jsonl) :: !traced)
            (guard (fun () -> traced_pass spec tracer)));
      match (!untraced, !traced) with
      | [], _ | _, [] -> ([], None)
      | untraced, traced ->
          let u = List.nth untraced (median_index (List.map (fun l -> l.seconds) untraced)) in
          let tracer, (a : Campaign.aggregate), dropped, _, bytes =
            List.nth traced (median_index (List.map (fun (_, _, _, s, _) -> s) traced))
          in
          ( per_layer
              {
                tracer;
                vote_round = (fun _ -> false);
                untraced_run_s = List.map (fun l -> l.seconds) untraced;
                traced_run_s = List.map (fun (_, _, _, s, _) -> s) traced;
                engine_setup_s = 0.;
                letters = a.total_honest_messages;
                adversary_letters = a.total_adversary_messages;
                rejected = 0;
                minor_gcs = u.minor_gcs;
                major_gcs = u.major_gcs;
                cells = a.tasks;
                excused = a.excused;
                dropped;
                jsonl_bytes = bytes;
                service_overhead_s = median !overheads;
                manifest = (match !manifests with m :: _ -> Some m | [] -> None);
              },
            Some tracer )

(* ------------------------------------------------------------------ *)
(* main *)

let workloads =
  [
    ("treeaa-benign", `Single (fun seed -> tree_aa ~n:200 ~spoiler:false seed));
    ("treeaa-spoiler", `Single (fun seed -> tree_aa ~n:150 ~spoiler:true seed));
    ("midpoint-wide", `Single (fun seed -> midpoint ~n:1000 ~iterations:10 seed));
    ("campaign-grid", `Grid grid_spec);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the traced run's spans (Chrome JSON)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match List.assoc_opt !workload workloads with
    | Some k -> k
    | None ->
        prerr_endline
          ("perfbench: unknown workload " ^ !workload ^ "; one of "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  let traced = !trace = 1 in
  let metrics, tracer =
    match kind with
    | `Single make when traced -> single_per_layer (make !seed) ~seconds:!seconds
    | `Single make -> (single_end_to_end (make !seed) ~seconds:!seconds, None)
    | `Grid make when traced -> grid_per_layer (make !seed) ~seconds:!seconds
    | `Grid make -> (grid_end_to_end (make !seed) ~seconds:!seconds, None)
  in
  (match tracer with
  | Some tr when !spans_out <> "" ->
      let oc = open_out !spans_out in
      output_string oc (Json.to_string (Tracer.to_chrome tr));
      close_out oc
  | _ -> ());
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str !workload);
            ("seed", Json.Num (float_of_int !seed));
            ("attempted", Json.Num (float_of_int !attempted));
            ("failed", Json.Num (float_of_int !failed));
            ("problems", Json.Arr (List.rev_map (fun p -> Json.Str p) !problems));
            ("metrics", Json.Arr (List.map json_of_metric metrics));
          ]))
