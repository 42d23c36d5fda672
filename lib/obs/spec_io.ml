(* Campaign.Spec <-> JSON / CLI-string codec.

   The flight recorder persists the full campaign spec inside every run
   record, so a record file alone suffices to re-instantiate and replay
   the run; the CLI reuses the same string grammar for its campaign
   flags. The JSON encoding is structural (floats as JSON numbers, which
   [Jsonx.to_string] renders exactly), so [of_json (to_json s) = Ok s]
   for every valid spec. *)

module Json = Aat_telemetry.Jsonx
module Spec = Aat_campaign.Campaign.Spec
module Plan_io = Aat_faults.Plan_io

(* ------------------------------------------------------------------ *)
(* CLI string grammar (moved here from the CLI so record tooling and the
   campaign command parse identically) *)

let size_of_string s =
  let int v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "bad size %S (want N or LO-HI)" s)
  in
  match String.index_opt s '-' with
  | Some i ->
      let ( let* ) = Result.bind in
      let* lo = int (String.sub s 0 i) in
      let* hi = int (String.sub s (i + 1) (String.length s - i - 1)) in
      Ok (Spec.Between (lo, hi))
  | None -> Result.map (fun n -> Spec.Exactly n) (int s)

let size_to_string = function
  | Spec.Exactly n -> string_of_int n
  | Spec.Between (lo, hi) -> Printf.sprintf "%d-%d" lo hi

let tree_family_of_string s =
  let open Spec in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' s with
  | [ "any" ] -> Ok Any_tree
  | [ "path"; n ] -> Result.map (fun n -> Path_tree n) (size_of_string n)
  | [ "star"; n ] -> Result.map (fun n -> Star_tree n) (size_of_string n)
  | [ "caterpillar"; spine; legs ] ->
      let* spine = size_of_string spine in
      let* legs = size_of_string legs in
      Ok (Caterpillar_tree { spine; legs })
  | [ "spider"; legs; len ] ->
      let* legs = size_of_string legs in
      let* leg_length = size_of_string len in
      Ok (Spider_tree { legs; leg_length })
  | [ "balanced"; arity; depth ] ->
      let* arity = size_of_string arity in
      let* depth = size_of_string depth in
      Ok (Balanced_tree { arity; depth })
  | [ "random"; n ] -> Result.map (fun n -> Random_tree n) (size_of_string n)
  | _ ->
      Error
        (Printf.sprintf
           "unknown tree family %S (try any, path:SIZE, star:SIZE, \
            caterpillar:SIZE:SIZE, spider:SIZE:SIZE, balanced:SIZE:SIZE, \
            random:SIZE; SIZE is N or LO-HI)"
           s)

let tree_family_to_string = function
  | Spec.Any_tree -> "any"
  | Spec.Path_tree n -> "path:" ^ size_to_string n
  | Spec.Star_tree n -> "star:" ^ size_to_string n
  | Spec.Caterpillar_tree { spine; legs } ->
      Printf.sprintf "caterpillar:%s:%s" (size_to_string spine)
        (size_to_string legs)
  | Spec.Spider_tree { legs; leg_length } ->
      Printf.sprintf "spider:%s:%s" (size_to_string legs)
        (size_to_string leg_length)
  | Spec.Balanced_tree { arity; depth } ->
      Printf.sprintf "balanced:%s:%s" (size_to_string arity)
        (size_to_string depth)
  | Spec.Random_tree n -> "random:" ^ size_to_string n

let protocol_of_string ~eps s =
  let open Spec in
  match s with
  | "tree-aa" -> Ok Tree_aa
  | "nr-baseline" -> Ok Nr_baseline
  | "path-aa" -> Ok Path_aa
  | "known-path-aa" -> Ok Known_path_aa
  | "realaa" -> Ok (Real_aa { eps })
  | "iterated-midpoint" -> Ok (Iterated_midpoint { eps })
  | "async-tree-aa" -> Ok Async_tree_aa
  | "round-sim-tree-aa" -> Ok Round_sim_tree_aa
  | other ->
      Error
        (Printf.sprintf
           "unknown protocol %S (have: tree-aa, nr-baseline, path-aa, \
            known-path-aa, realaa, iterated-midpoint, async-tree-aa, \
            round-sim-tree-aa)"
           other)

let adversary_of_string s =
  let open Spec in
  match s with
  | "none" -> Ok Passive
  | "silent" -> Ok Random_silent
  | "crash" -> Ok Random_crash
  | "spoiler" -> Ok Tree_spoiler
  | "real-spoiler" -> Ok Real_spoiler
  | "wedge" -> Ok Gradecast_wedge
  | "any-tree" -> Ok Any_tree_adversary
  | "any-real" -> Ok Any_real_adversary
  | other when String.length other > 7 && String.sub other 0 7 = "genome:" ->
      Result.map
        (fun g -> Synth_genome g)
        (Aat_adversary.Genome.of_string
           (String.sub other 7 (String.length other - 7)))
  | other ->
      Error
        (Printf.sprintf
           "unknown adversary family %S (have: none, silent, crash, spoiler, \
            real-spoiler, wedge, any-tree, any-real, genome:<encoded>)"
           other)

let adversary_to_string = function
  | Spec.Passive -> "none"
  | Spec.Random_silent -> "silent"
  | Spec.Random_crash -> "crash"
  | Spec.Tree_spoiler -> "spoiler"
  | Spec.Real_spoiler -> "real-spoiler"
  | Spec.Gradecast_wedge -> "wedge"
  | Spec.Any_tree_adversary -> "any-tree"
  | Spec.Any_real_adversary -> "any-real"
  | Spec.Synth_genome g -> "genome:" ^ Aat_adversary.Genome.to_string g

let inputs_of_string s =
  let open Spec in
  let float v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad number %S in input distribution" v)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' s with
  | [ "vertices" ] -> Ok Random_vertices
  | [ "linspace"; d ] -> Result.map (fun d -> Linspace_reals d) (float d)
  | [ "loguniform"; lo; hi ] ->
      let* log10_min = float lo in
      let* log10_max = float hi in
      Ok (Log_uniform_reals { log10_min; log10_max })
  | _ ->
      Error
        (Printf.sprintf
           "unknown input distribution %S (try vertices, linspace:D, \
            loguniform:LOG10MIN:LOG10MAX)"
           s)

(* ------------------------------------------------------------------ *)
(* structural JSON codec *)

let json_of_size = function
  | Spec.Exactly n -> Json.Num (float_of_int n)
  | Spec.Between (lo, hi) ->
      Json.Obj
        [
          ("lo", Json.Num (float_of_int lo)); ("hi", Json.Num (float_of_int hi));
        ]

let size_of_json = function
  | Json.Num _ as j -> (
      match Json.to_int j with
      | Some n -> Ok (Spec.Exactly n)
      | None -> Error "size must be an integer")
  | Json.Obj _ as j -> (
      match
        ( Option.bind (Json.member "lo" j) Json.to_int,
          Option.bind (Json.member "hi" j) Json.to_int )
      with
      | Some lo, Some hi -> Ok (Spec.Between (lo, hi))
      | _ -> Error "size object needs integer lo and hi")
  | _ -> Error "size must be a number or {lo, hi}"

let json_of_tree_family tf =
  let sized family kvs = Json.Obj (("family", Json.Str family) :: kvs) in
  match tf with
  | Spec.Any_tree -> Json.Str "any"
  | Spec.Path_tree n -> sized "path" [ ("size", json_of_size n) ]
  | Spec.Star_tree n -> sized "star" [ ("size", json_of_size n) ]
  | Spec.Caterpillar_tree { spine; legs } ->
      sized "caterpillar"
        [ ("spine", json_of_size spine); ("legs", json_of_size legs) ]
  | Spec.Spider_tree { legs; leg_length } ->
      sized "spider"
        [ ("legs", json_of_size legs); ("leg_length", json_of_size leg_length) ]
  | Spec.Balanced_tree { arity; depth } ->
      sized "balanced"
        [ ("arity", json_of_size arity); ("depth", json_of_size depth) ]
  | Spec.Random_tree n -> sized "random" [ ("size", json_of_size n) ]

let tree_family_of_json j =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name j with
    | Some v -> size_of_json v
    | None -> Error (Printf.sprintf "tree family needs field %S" name)
  in
  match j with
  | Json.Str "any" -> Ok Spec.Any_tree
  | Json.Obj _ -> (
      match Option.bind (Json.member "family" j) Json.to_str with
      | None -> Error "tree family object needs a \"family\" string"
      | Some "path" -> Result.map (fun n -> Spec.Path_tree n) (field "size")
      | Some "star" -> Result.map (fun n -> Spec.Star_tree n) (field "size")
      | Some "caterpillar" ->
          let* spine = field "spine" in
          let* legs = field "legs" in
          Ok (Spec.Caterpillar_tree { spine; legs })
      | Some "spider" ->
          let* legs = field "legs" in
          let* leg_length = field "leg_length" in
          Ok (Spec.Spider_tree { legs; leg_length })
      | Some "balanced" ->
          let* arity = field "arity" in
          let* depth = field "depth" in
          Ok (Spec.Balanced_tree { arity; depth })
      | Some "random" -> Result.map (fun n -> Spec.Random_tree n) (field "size")
      | Some other -> Error (Printf.sprintf "unknown tree family %S" other))
  | _ -> Error "tree family must be \"any\" or an object"

let json_of_protocol p =
  match p with
  | Spec.Real_aa { eps } ->
      Json.Obj [ ("name", Json.Str "realaa"); ("eps", Json.Num eps) ]
  | Spec.Iterated_midpoint { eps } ->
      Json.Obj [ ("name", Json.Str "iterated-midpoint"); ("eps", Json.Num eps) ]
  | _ -> Json.Str (Spec.protocol_label p)

let protocol_of_json j =
  match j with
  | Json.Str s -> protocol_of_string ~eps:1.0 s
  | Json.Obj _ -> (
      match
        ( Option.bind (Json.member "name" j) Json.to_str,
          Option.bind (Json.member "eps" j) Json.to_float )
      with
      | Some name, Some eps -> protocol_of_string ~eps name
      | Some name, None -> protocol_of_string ~eps:1.0 name
      | None, _ -> Error "protocol object needs a \"name\" string")
  | _ -> Error "protocol must be a string or {name, eps}"

let json_of_budget = function
  | Spec.Up_to_third -> Json.Str "third"
  | Spec.Fixed_t t -> Json.Num (float_of_int t)

let budget_of_json = function
  | Json.Str "third" -> Ok Spec.Up_to_third
  | j -> (
      match Json.to_int j with
      | Some t -> Ok (Spec.Fixed_t t)
      | None -> Error "t budget must be \"third\" or an integer")

let json_of_inputs = function
  | Spec.Random_vertices -> Json.Str "vertices"
  | Spec.Linspace_reals d ->
      Json.Obj [ ("dist", Json.Str "linspace"); ("d", Json.Num d) ]
  | Spec.Log_uniform_reals { log10_min; log10_max } ->
      Json.Obj
        [
          ("dist", Json.Str "loguniform");
          ("log10_min", Json.Num log10_min);
          ("log10_max", Json.Num log10_max);
        ]

let inputs_of_json j =
  match j with
  | Json.Str "vertices" -> Ok Spec.Random_vertices
  | Json.Obj _ -> (
      let float name = Option.bind (Json.member name j) Json.to_float in
      match Option.bind (Json.member "dist" j) Json.to_str with
      | Some "linspace" -> (
          match float "d" with
          | Some d -> Ok (Spec.Linspace_reals d)
          | None -> Error "linspace inputs need a numeric \"d\"")
      | Some "loguniform" -> (
          match (float "log10_min", float "log10_max") with
          | Some log10_min, Some log10_max ->
              Ok (Spec.Log_uniform_reals { log10_min; log10_max })
          | _ -> Error "loguniform inputs need log10_min and log10_max")
      | Some other -> Error (Printf.sprintf "unknown input dist %S" other)
      | None -> Error "input distribution object needs a \"dist\" string")
  | _ -> Error "inputs must be \"vertices\" or an object"

let json_of_faults = function
  | Spec.No_faults -> []
  | Spec.Fault_plan p ->
      [
        ( "faults",
          Json.Obj
            [
              ("mode", Json.Str "plan");
              ("plan", Json.Str (Plan_io.to_string p));
            ] );
      ]
  | Spec.Chaos { intensity } ->
      [
        ( "faults",
          Json.Obj
            [ ("mode", Json.Str "chaos"); ("intensity", Json.Num intensity) ]
        );
      ]

let faults_of_json j =
  match Json.member "faults" j with
  | None -> Ok Spec.No_faults
  | Some fj -> (
      match Option.bind (Json.member "mode" fj) Json.to_str with
      | Some "plan" -> (
          match Option.bind (Json.member "plan" fj) Json.to_str with
          | None -> Error "fault plan mode needs a \"plan\" string"
          | Some s ->
              Result.map
                (fun p -> Spec.Fault_plan p)
                (Result.map_error (fun m -> "fault plan: " ^ m)
                   (Plan_io.parse s)))
      | Some "chaos" -> (
          match Option.bind (Json.member "intensity" fj) Json.to_float with
          | Some intensity -> Ok (Spec.Chaos { intensity })
          | None -> Error "chaos faults need a numeric \"intensity\"")
      | Some other -> Error (Printf.sprintf "unknown fault mode %S" other)
      | None -> Error "faults object needs a \"mode\" string")

let to_json (s : Spec.t) =
  Json.Obj
    ([
       ("name", Json.Str s.name);
       ("protocol", json_of_protocol s.protocol);
       ("tree", json_of_tree_family s.tree);
       ("n", json_of_size s.n);
       ("t", json_of_budget s.t_budget);
       ("inputs", json_of_inputs s.inputs);
       ("adversary", Json.Str (adversary_to_string s.adversary));
     ]
    @ json_of_faults s.faults
    @ (if s.watchdogs then [ ("watchdogs", Json.Bool true) ] else [])
    @ [
        ("repetitions", Json.Num (float_of_int s.repetitions));
        ("base_seed", Json.Num (float_of_int s.base_seed));
      ])

let of_json j =
  let ( let* ) = Result.bind in
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "spec needs a string field %S" name)
  in
  let int name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "spec needs an integer field %S" name)
  in
  let field name of_json_v =
    match Json.member name j with
    | Some v -> of_json_v v
    | None -> Error (Printf.sprintf "spec needs a field %S" name)
  in
  let* name = str "name" in
  let* protocol = field "protocol" protocol_of_json in
  let* tree = field "tree" tree_family_of_json in
  let* n = field "n" size_of_json in
  let* t_budget = field "t" budget_of_json in
  let* inputs = field "inputs" inputs_of_json in
  let* adversary = Result.bind (str "adversary") adversary_of_string in
  let* faults = faults_of_json j in
  let watchdogs =
    match Json.member "watchdogs" j with Some (Json.Bool b) -> b | _ -> false
  in
  let* repetitions = int "repetitions" in
  let* base_seed = int "base_seed" in
  Ok
    {
      Spec.name;
      protocol;
      tree;
      n;
      t_budget;
      inputs;
      adversary;
      faults;
      watchdogs;
      repetitions;
      base_seed;
    }

(* Spec files are the same JSON flight-record headers embed: one file
   describes a whole campaign grid. *)
let of_file path =
  let ( let* ) = Result.bind in
  let* contents =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error m -> Error m
  in
  let* json =
    Result.map_error
      (fun m -> Printf.sprintf "%s: not JSON: %s" path m)
      (Json.of_string (String.trim contents))
  in
  Result.map_error
    (fun m -> Printf.sprintf "%s: bad campaign spec: %s" path m)
    (of_json json)
