(* Two engine runs at sizes the tier-1 suite never reaches. Exits
   non-zero on any violation; `dune build @scale-smoke` runs it.

   1. n = 2000 under injected faults, on the protocol whose cost is pure
      transport: the naive iterated midpoint (O(1) float payloads, n²
      letters per round). Streamed-path sends, a seeded omission + crash
      plan compiled onto the mailbox, and the structural checks a lossy
      plan still owes us (termination inside the round budget, outputs
      inside the honest input hull, crash accounting).

   2. TreeAA at n = 1000 on a 10-vertex star, passive adversary: both
      gradecast-based RealAA phases, whose round-3 tallies the parties
      share through the gradecast memo (about 5 s). Checks the
      Definition 2 verdict, the exact fixed schedule and the honest
      letter count n²·R. *)

open Treeagree

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let midpoint_under_faults () =
  let n = 2_000 and t = 600 and iterations = 12 and seed = 11 in
  let inputs =
    Array.init n (fun i -> float_of_int i /. float_of_int n *. 1000.)
  in
  let plan =
    match Fault_plan_io.parse "omission:0.001;crash:3@2;crash:5@4" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let report =
    Engine.run ~n ~t ~seed ~max_rounds:iterations
      ~fault_filter:(Fault_inject.filter ~engine:`Sync ~seed plan)
      ~crash_faults:(Fault_inject.crashes plan)
      ~protocol:
        (Iterated_midpoint.naive ~inputs:(fun i -> inputs.(i)) ~t ~iterations)
      ~adversary:(Adversary.passive "none")
      ()
  in
  let values =
    List.map (fun (_, r) -> r.Iterated_midpoint.value) report.Report.outputs
  in
  let spread =
    List.fold_left Float.max neg_infinity values
    -. List.fold_left Float.min infinity values
  in
  if report.Report.rounds_used > iterations then
    fail "rounds_used %d > budget %d" report.Report.rounds_used iterations;
  let crashed = List.length report.Report.corrupted in
  if crashed <> 2 then fail "expected 2 crashed parties, saw %d" crashed;
  if List.length values <> n - crashed then
    fail "only %d of %d honest parties decided" (List.length values)
      (n - crashed);
  List.iter
    (fun v ->
      if not (v >= 0. && v <= 1000.) then fail "output %g outside hull" v)
    values;
  if report.Report.fault_stats.Report.dropped = 0 then
    fail "omission plan dropped nothing — fault filter not applied";
  Printf.printf
    "scale smoke clean: n=%d rounds=%d msgs=%d dropped=%d crashed=%d \
     spread=%g\n"
    n report.Report.rounds_used report.Report.honest_messages
    report.Report.fault_stats.Report.dropped crashed spread

let tree_aa_passive () =
  let n = 1_000 and seed = 1 in
  let t = (n - 1) / 3 in
  let tree = Generate.star 9 in
  let rng = Rng.create seed in
  let inputs = Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree)) in
  let rounds = Tree_aa.rounds ~tree in
  let report =
    Tree_aa.run ~seed ~tree ~inputs ~t ~adversary:(Adversary.passive "none") ()
  in
  let verdict = Tree_verdict.check_report ~tree ~inputs ~value:Fun.id report in
  if not (Verdict.all_ok verdict) then
    fail "tree-aa n=%d: %s" n (Format.asprintf "%a" Verdict.pp verdict);
  if report.Report.rounds_used <> rounds then
    fail "tree-aa rounds_used %d <> schedule %d" report.Report.rounds_used
      rounds;
  if report.Report.honest_messages <> n * n * rounds then
    fail "tree-aa honest messages %d <> n²·R = %d"
      report.Report.honest_messages (n * n * rounds);
  Printf.printf "scale smoke clean: tree-aa star-9 n=%d rounds=%d msgs=%d\n" n
    rounds report.Report.honest_messages

let () =
  midpoint_under_faults ();
  tree_aa_passive ()
