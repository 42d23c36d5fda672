(* Tests for gradecast: the three properties (validity, soundness, value
   agreement on grade >= 1) under honest, crashing, equivocating and random
   Byzantine leaders; and the shared round-3 tally memo, which must be
   keyed by row identity and unobservable in every run. *)

open Aat_engine
open Aat_gradecast
module Multi = Gradecast.Multi
module Strategies = Aat_adversary.Strategies
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let inputs self = float_of_int (10 * (self + 1))

let run ~n ~t ~leader ~adversary =
  let report =
    Sync_engine.run ~n ~t ~max_rounds:3
      ~protocol:(Gradecast.protocol ~leader ~inputs ~t)
      ~adversary ()
  in
  Sync_engine.honest_outputs report

(* The gradecast properties, as checkers over the honest outcomes. *)
let validity_holds ~leader_value outcomes =
  List.for_all
    (fun (r : float Gradecast.result) ->
      r.grade = Gradecast.G2 && r.value = Some leader_value)
    outcomes

let soundness_holds outcomes =
  let someone_g2 =
    List.exists (fun (r : float Gradecast.result) -> r.grade = Gradecast.G2) outcomes
  in
  (not someone_g2)
  || List.for_all
       (fun (r : float Gradecast.result) -> r.grade <> Gradecast.G0)
       outcomes

let value_agreement_holds outcomes =
  let values =
    List.filter_map (fun (r : float Gradecast.result) -> r.value) outcomes
  in
  match values with [] -> true | v :: vs -> List.for_all (( = ) v) vs

let all_properties outcomes = soundness_holds outcomes && value_agreement_holds outcomes

let test_honest_leader () =
  List.iter
    (fun (n, t) ->
      let outcomes = run ~n ~t ~leader:0 ~adversary:(Adversary.passive "none") in
      check "validity" true (validity_holds ~leader_value:10. outcomes))
    [ (4, 1); (7, 2); (10, 3); (4, 0); (13, 4) ]

let test_honest_leader_with_byz_helpers () =
  (* Leader honest, other parties Byzantine and silent: validity must still
     hold. *)
  let outcomes =
    run ~n:7 ~t:2 ~leader:0 ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
  in
  check "validity despite silent byz" true (validity_holds ~leader_value:10. outcomes)

let test_silent_leader () =
  let outcomes =
    run ~n:7 ~t:2 ~leader:6 ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
  in
  check "all grade 0" true
    (List.for_all
       (fun (r : float Gradecast.result) -> r.grade = Gradecast.G0 && r.value = None)
       outcomes)

let test_equivocating_leader_round1 () =
  (* Leader sends different values to the two halves in round 1, everything
     else honest: soundness and value agreement must survive. *)
  let base = Gradecast.protocol ~leader:6 ~inputs ~t:2 in
  let adversary =
    Strategies.puppeteer ~name:"equivocate" ~protocol:base ~victims:[ 6 ]
      ~twist:(fun ~round ~src:_ ~dst m ->
        match (round, m) with
        | 1, Multi.Value _ -> Some (Multi.Value (if dst < 3 then 1.0 else 2.0))
        | _ -> Some m)
  in
  let outcomes = run ~n:7 ~t:2 ~leader:6 ~adversary in
  check "soundness + agreement" true (all_properties outcomes)

let test_selective_omission_leader () =
  (* Leader sends its value to only n - 2t parties; helpers honest. *)
  let base = Gradecast.protocol ~leader:6 ~inputs ~t:2 in
  let adversary =
    Strategies.puppeteer ~name:"omit" ~protocol:base ~victims:[ 6 ]
      ~twist:(fun ~round ~src:_ ~dst m ->
        match (round, m) with
        | 1, Multi.Value _ -> if dst < 3 then Some m else None
        | _ -> Some m)
  in
  let outcomes = run ~n:7 ~t:2 ~leader:6 ~adversary in
  check "soundness + agreement" true (all_properties outcomes)

let test_lying_echoers () =
  (* Honest leader; Byzantine echoers claim a different value. Validity must
     still hold: honest echo quorum dominates. *)
  let base = Gradecast.protocol ~leader:0 ~inputs ~t:2 in
  let adversary =
    Strategies.puppeteer ~name:"lying-echo" ~protocol:base ~victims:[ 5; 6 ]
      ~twist:(fun ~round:_ ~src:_ ~dst:_ m ->
        match m with
        | Multi.Value _ -> Some m
        | Multi.Echo row -> Some (Multi.Echo (Array.map (Option.map (fun _ -> 999.)) row))
        | Multi.Vote row -> Some (Multi.Vote (Array.map (Option.map (fun _ -> 999.)) row)))
  in
  let outcomes = run ~n:7 ~t:2 ~leader:0 ~adversary in
  check "validity despite lying echoes" true (validity_holds ~leader_value:10. outcomes)

(* Random Byzantine behaviour: corrupted parties send syntactically valid but
   arbitrary messages each round; every gradecast property must hold for
   honest leaders, and soundness/value-agreement for Byzantine ones. *)
let random_forger ~seed =
  let rng = Rng.create seed in
  {
    Adversary.name = "random-forger";
    passive = false;
    initial_corruptions = (fun ~n ~t _ -> List.init t (fun i -> n - t + i));
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        let byz = Adversary.corrupted_parties view in
        let random_value () = float_of_int (Rng.int rng 100) in
        let random_row () =
          Array.init view.n (fun _ ->
              if Rng.bool rng then Some (random_value ()) else None)
        in
        List.concat_map
          (fun c ->
            List.filter_map
              (fun dst ->
                if Rng.int rng 4 = 0 then None (* sometimes omit *)
                else
                  let body =
                    match Rng.int rng 3 with
                    | 0 -> Multi.Value (random_value ())
                    | 1 -> Multi.Echo (random_row ())
                    | _ -> Multi.Vote (random_row ())
                  in
                  Some { Types.src = c; dst; body })
              (List.init view.n Fun.id))
          byz);
  }

let prop_random_byzantine =
  QCheck2.Test.make ~name:"gradecast properties under random byzantine"
    ~count:120
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 0 2))
    (fun (seed, size_class) ->
      let n, t = List.nth [ (4, 1); (7, 2); (10, 3) ] size_class in
      (* honest leaders: validity; byz leader: soundness + agreement *)
      let honest_outcomes =
        run ~n ~t ~leader:0 ~adversary:(random_forger ~seed)
      in
      let byz_outcomes =
        run ~n ~t ~leader:(n - 1) ~adversary:(random_forger ~seed)
      in
      validity_holds ~leader_value:10. honest_outcomes
      && all_properties byz_outcomes)

let test_rounds_constant () =
  check_int "three rounds" 3 Multi.rounds;
  let report =
    Sync_engine.run ~n:4 ~t:1 ~max_rounds:3
      ~protocol:(Gradecast.protocol ~leader:0 ~inputs ~t:1)
      ~adversary:(Adversary.passive "none") ()
  in
  check_int "terminates in exactly 3" 3 report.rounds_used

let test_grade_utils () =
  check_int "g0" 0 (Gradecast.grade_to_int Gradecast.G0);
  check_int "g1" 1 (Gradecast.grade_to_int Gradecast.G1);
  check_int "g2" 2 (Gradecast.grade_to_int Gradecast.G2)

(* --- the shared tally memo --- *)

let test_memo_keyed_by_row_identity () =
  let row v = [| Some v; None; Some 1.; Some v |] in
  let r0 = row 5. and r1 = row 5. and r2 = row 7. and r3 = row 5. in
  let table = [| r0; r1; r2; r3 |] in
  let memo = Multi.memo () in
  let first = Multi.tallies memo table in
  check "tallies" true
    (first = [| Some (5., 3); None; Some (1., 4); Some (5., 3) |]);
  check "same rows in a fresh table: served from the snapshot" true
    (Multi.tallies memo (Array.copy table) == first);
  (* Every position, first and last included: one row that differs from
     the key — by contents, or only by identity — is never answered from
     the snapshot, and the fresh tallies are those of an unshared memo. *)
  for i = 0 to Array.length table - 1 do
    List.iter
      (fun (what, replacement) ->
        let variant = Array.copy table in
        variant.(i) <- replacement;
        let memo = Multi.memo () in
        let snapshot = Multi.tallies memo table in
        let got = Multi.tallies memo variant in
        check (Printf.sprintf "row %d %s: no hit" i what) false (got == snapshot);
        check
          (Printf.sprintf "row %d %s: fresh tallies" i what)
          true
          (got = Multi.tallies (Multi.memo ()) variant))
      [
        ("structurally equal copy", Array.copy table.(i));
        ("different contents", row 9.);
      ]
  done;
  let smaller = [| [| Some 5. |] |] in
  check "a table of another size misses" true
    (Multi.tallies memo smaller = [| Some (5., 1) |])

(* Party [self] runs its own instance of [make ()], so nothing protocol
   constructors share (the tally memo above all) is shared across
   parties: the reference every shared-memo run must reproduce. *)
let per_party n (make : unit -> ('s, 'm, 'o) Protocol.t) : ('s, 'm, 'o) Protocol.t =
  let ps = Array.init n (fun _ -> make ()) in
  {
    (ps.(0)) with
    init = (fun ~self ~n -> ps.(self).init ~self ~n);
    send = (fun ~round ~self st -> ps.(self).send ~round ~self st);
    receive =
      (fun ~round ~self ~inbox st -> ps.(self).receive ~round ~self ~inbox st);
  }

(* Everything a run reports that the memo could move; an exception (a
   fault plan may break the model) is compared by its text. *)
let observe run =
  match run () with
  | (r : (_, _) Sync_engine.report) ->
      Ok
        ( r.outputs,
          r.corrupted,
          r.rounds_used,
          r.honest_messages,
          r.adversary_messages,
          r.rejected_forgeries,
          r.fault_stats )
  | exception e -> Error (Printexc.to_string e)

type scenario = Passive | Spoiler | Wedge | Equivocating_genome | Random_genome | Faults

let scenarios = [ Passive; Spoiler; Wedge; Equivocating_genome; Random_genome; Faults ]

let genome seed ~t ~max_round = function
  | Equivocating_genome -> (
      match Aat_adversary.Genome.of_string "wedge+spoiler!+fifo" with
      | Ok g -> g
      | Error e -> failwith e)
  | _ -> Aat_adversary.Genome.random (Rng.create seed) ~t ~max_round

let fault_plan ~n =
  match Aat_faults.Plan_io.parse (Printf.sprintf "omission:0.15;crash:%d@4" (n - 1)) with
  | Ok p -> p
  | Error e -> failwith e

(* One run of [protocol] under [scenario]; [attack] builds the
   scenario's adversary afresh, since adversaries keep state. *)
let run_scenario ~seed ~n ~t ~max_round ~attack scenario ~protocol () =
  let fault_filter, crash_faults =
    match scenario with
    | Faults ->
        let plan = fault_plan ~n in
        ( Some (Aat_faults.Inject.filter ~engine:`Sync ~seed plan),
          Some (Aat_faults.Inject.crashes plan) )
    | Passive | Spoiler | Wedge | Equivocating_genome | Random_genome -> (None, None)
  in
  Sync_engine.run ~n ~t ~seed ~max_rounds:max_round ?fault_filter ?crash_faults
    ~protocol ~adversary:(attack scenario) ()

let bdh_case ~seed ~n ~t scenario =
  let iterations = 3 in
  let max_round = 3 * iterations in
  let inputs self = float_of_int (((self * 37) + seed) mod 101) in
  let attack = function
    | Passive | Faults -> Adversary.passive "none"
    | Spoiler -> Aat_adversary.Spoiler.realaa_spoiler ~t ~iterations
    | Wedge -> Aat_adversary.Wedge.gradecast_wedge ()
    | (Equivocating_genome | Random_genome) as s ->
        Aat_adversary.Genome.compile_real ~n ~t ~iterations
          (genome seed ~t ~max_round s)
  in
  let make ?memo () = Aat_realaa.Bdh.protocol ?memo ~inputs ~t ~iterations () in
  let go protocol = observe (run_scenario ~seed ~n ~t ~max_round ~attack scenario ~protocol) in
  (go (make ()), go (per_party n (fun () -> make ~memo:(Multi.memo ()) ())))

let tree_case ~seed ~n ~t scenario =
  let open Aat_treeaa in
  let tree = Aat_tree.Generate.random (Rng.create seed) (5 + (seed mod 8)) in
  let nv = Aat_tree.Labeled_tree.n_vertices tree in
  let inputs self = ((self * 7) + seed) mod nv in
  let max_round = max 1 (Tree_aa.rounds ~tree) in
  let barrier = max 1 (Paths_finder.rounds ~tree) in
  let tour_len = (2 * nv) - 1 in
  let first_iterations =
    Aat_realaa.Rounds.bdh_iterations ~range:(float_of_int (tour_len - 1)) ~eps:1.
  in
  let second_iterations =
    Aat_realaa.Rounds.bdh_iterations
      ~range:(float_of_int (Aat_tree.Metrics.diameter tree))
      ~eps:1.
  in
  let phased name first second =
    Aat_adversary.Compose.phased ~name ~barrier ~first ~second
  in
  let attack = function
    | Passive | Faults -> Adversary.passive "none"
    | Spoiler ->
        phased "spoiler-both"
          (Aat_adversary.Spoiler.realaa_spoiler ~t ~iterations:first_iterations)
          (Aat_adversary.Spoiler.realaa_spoiler ~t ~iterations:second_iterations)
    | Wedge ->
        phased "wedge-both" (Aat_adversary.Wedge.gradecast_wedge ())
          (Aat_adversary.Wedge.gradecast_wedge ())
    | (Equivocating_genome | Random_genome) as s ->
        Aat_adversary.Genome.compile_tree ~n ~t ~barrier ~first_iterations
          ~second_iterations (genome seed ~t ~max_round s)
  in
  let make () = Tree_aa.protocol ~tree ~inputs ~t in
  let go protocol = observe (run_scenario ~seed ~n ~t ~max_round ~attack scenario ~protocol) in
  (go (make ()), go (per_party n make))

let prop_memo_unobservable =
  QCheck2.Test.make ~name:"shared memo == memo per party (bdh, tree-aa)"
    ~count:100
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 0 3)
        (int_range 0 (List.length scenarios - 1))
        bool)
    (fun (seed, size, scenario, tree) ->
      let n = 4 + (3 * size) in
      let t = (n - 1) / 3 in
      let scenario = List.nth scenarios scenario in
      if tree then
        let shared, unshared = tree_case ~seed ~n ~t scenario in
        shared = unshared
      else
        let shared, unshared = bdh_case ~seed ~n ~t scenario in
        shared = unshared)

let () =
  Alcotest.run "gradecast"
    [
      ( "properties",
        [
          Alcotest.test_case "honest leader validity" `Quick test_honest_leader;
          Alcotest.test_case "honest leader, silent byz" `Quick
            test_honest_leader_with_byz_helpers;
          Alcotest.test_case "silent leader" `Quick test_silent_leader;
          Alcotest.test_case "equivocating leader" `Quick
            test_equivocating_leader_round1;
          Alcotest.test_case "selective omission" `Quick
            test_selective_omission_leader;
          Alcotest.test_case "lying echoers" `Quick test_lying_echoers;
          Alcotest.test_case "rounds" `Quick test_rounds_constant;
          Alcotest.test_case "grade utils" `Quick test_grade_utils;
        ] );
      ( "random-byzantine",
        [ QCheck_alcotest.to_alcotest prop_random_byzantine ] );
      ( "memo",
        [
          Alcotest.test_case "keyed by row identity" `Quick
            test_memo_keyed_by_row_identity;
          QCheck_alcotest.to_alcotest prop_memo_unobservable;
        ] );
    ]
