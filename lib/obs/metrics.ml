module Json = Aat_telemetry.Jsonx
module Campaign = Aat_campaign.Campaign

(* ------------------------------------------------------------------ *)
(* registry *)

type cell =
  | Ccounter of { mutable c : float }
  | Cgauge of { mutable g : float }
  | Chist of {
      bounds : float array;
      counts : int array;
      mutable overflow : int;
      mutable sum : float;
      mutable count : int;
    }

type key = string * (string * string) list

type live = { mutex : Mutex.t; table : (key, cell) Hashtbl.t }
type t = Null_reg | Live of live

let null = Null_reg
let is_null = function Null_reg -> true | Live _ -> false
let create () = Live { mutex = Mutex.create (); table = Hashtbl.create 64 }

let sort_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

(* a handle is the registry mutex plus the cell it updates; [None] under
   the null registry, so the hot path is one pattern match *)
type counter = (Mutex.t * cell) option
type gauge = (Mutex.t * cell) option
type histogram = (Mutex.t * cell) option

let default_buckets = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]

let mint reg ?(labels = []) name fresh =
  match reg with
  | Null_reg -> None
  | Live { mutex; table } ->
      let key = (name, sort_labels labels) in
      Mutex.lock mutex;
      let cell =
        match Hashtbl.find_opt table key with
        | Some c -> c
        | None ->
            let c = fresh () in
            Hashtbl.add table key c;
            c
      in
      Mutex.unlock mutex;
      Some (mutex, cell)

let counter reg ?labels name =
  mint reg ?labels name (fun () -> Ccounter { c = 0. })

let gauge reg ?labels name = mint reg ?labels name (fun () -> Cgauge { g = 0. })

let histogram reg ?labels ?(buckets = default_buckets) name =
  mint reg ?labels name (fun () ->
      let bounds = Array.of_list (List.sort_uniq Float.compare buckets) in
      Chist
        {
          bounds;
          counts = Array.make (Array.length bounds) 0;
          overflow = 0;
          sum = 0.;
          count = 0;
        })

let locked handle f =
  match handle with
  | None -> ()
  | Some (mutex, cell) ->
      Mutex.lock mutex;
      f cell;
      Mutex.unlock mutex

let add h delta =
  let delta = if delta < 0. then 0. else delta in
  locked h (function Ccounter c -> c.c <- c.c +. delta | _ -> ())

let incr h = add h 1.
let set h v = locked h (function Cgauge g -> g.g <- v | _ -> ())

let max_gauge h v =
  locked h (function Cgauge g -> g.g <- Float.max g.g v | _ -> ())

let observe h v =
  locked h (function
    | Chist hd ->
        let n = Array.length hd.bounds in
        let rec place i =
          if i >= n then hd.overflow <- hd.overflow + 1
          else if v <= hd.bounds.(i) then hd.counts.(i) <- hd.counts.(i) + 1
          else place (i + 1)
        in
        place 0;
        hd.sum <- hd.sum +. v;
        hd.count <- hd.count + 1
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* snapshots *)

module Snapshot = struct
  type value =
    | Counter of float
    | Gauge of float
    | Histogram of {
        bounds : float list;
        counts : int list;
        overflow : int;
        sum : float;
        count : int;
      }

  type series = { name : string; labels : (string * string) list; value : value }
  type t = series list

  let series ?(labels = []) name value =
    { name; labels = sort_labels labels; value }

  let compare_series a b =
    match String.compare a.name b.name with
    | 0 -> compare a.labels b.labels
    | c -> c

  let merge_values a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x +. y)
    | Gauge x, Gauge y -> Gauge (Float.max x y)
    | ( Histogram h1,
        Histogram h2 )
      when h1.bounds = h2.bounds ->
        Histogram
          {
            bounds = h1.bounds;
            counts = List.map2 ( + ) h1.counts h2.counts;
            overflow = h1.overflow + h2.overflow;
            sum = h1.sum +. h2.sum;
            count = h1.count + h2.count;
          }
    | left, _ -> left

  let of_list series =
    let sorted = List.stable_sort compare_series series in
    let rec squash = function
      | a :: b :: rest when compare_series a b = 0 ->
          squash ({ a with value = merge_values a.value b.value } :: rest)
      | a :: rest -> a :: squash rest
      | [] -> []
    in
    squash sorted

  let merge a b = of_list (a @ b)

  let equal a b = a = b

  let format_version = 1

  let json_of_series s =
    let labels =
      if s.labels = [] then []
      else
        [
          ( "labels",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels) );
        ]
    in
    let body =
      match s.value with
      | Counter v -> [ ("kind", Json.Str "counter"); ("value", Json.Num v) ]
      | Gauge v -> [ ("kind", Json.Str "gauge"); ("value", Json.Num v) ]
      | Histogram h ->
          [
            ("kind", Json.Str "histogram");
            ("bounds", Json.Arr (List.map (fun b -> Json.Num b) h.bounds));
            ( "counts",
              Json.Arr (List.map (fun c -> Json.Num (float_of_int c)) h.counts)
            );
            ("overflow", Json.Num (float_of_int h.overflow));
            ("sum", Json.Num h.sum);
            ("count", Json.Num (float_of_int h.count));
          ]
    in
    Json.Obj ((("name", Json.Str s.name) :: labels) @ body)

  let to_json t =
    Json.Obj
      [
        ("type", Json.Str "metrics-snapshot");
        ("format_version", Json.Num (float_of_int format_version));
        ("series", Json.Arr (List.map json_of_series t));
      ]

  let series_of_json j =
    let open Json in
    let ( let* ) = Option.bind in
    let* name = Option.bind (member "name" j) to_str in
    let labels =
      match member "labels" j with
      | Some (Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (to_str v))
            kvs
      | _ -> []
    in
    let* kind = Option.bind (member "kind" j) to_str in
    let* value =
      match kind with
      | "counter" ->
          Option.map (fun v -> Counter v) (Option.bind (member "value" j) to_float)
      | "gauge" ->
          Option.map (fun v -> Gauge v) (Option.bind (member "value" j) to_float)
      | "histogram" ->
          let nums field =
            Option.bind (member field j) to_list
            |> Option.map (List.filter_map to_float)
          in
          let ints field =
            Option.bind (member field j) to_list
            |> Option.map (List.filter_map to_int)
          in
          let* bounds = nums "bounds" in
          let* counts = ints "counts" in
          let* overflow = Option.bind (member "overflow" j) to_int in
          let* sum = Option.bind (member "sum" j) to_float in
          let* count = Option.bind (member "count" j) to_int in
          if List.length bounds <> List.length counts then None
          else Some (Histogram { bounds; counts; overflow; sum; count })
      | _ -> None
    in
    Some { name; labels = sort_labels labels; value }

  let of_json j =
    match Json.member "series" j with
    | Some (Json.Arr items) ->
        let rec go acc = function
          | [] -> Ok (of_list (List.rev acc))
          | item :: rest -> (
              match series_of_json item with
              | Some s -> go (s :: acc) rest
              | None -> Error "metrics-snapshot: malformed series entry")
        in
        go [] items
    | _ -> Error "metrics-snapshot: missing series array"

  (* render a sample value with the Jsonx number rule so the exposition
     is as deterministic as the JSON twin *)
  let num f =
    let buf = Buffer.create 24 in
    Json.add buf (Json.Num f);
    Buffer.contents buf

  let escape_label_value v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let render_labels = function
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
               labels)
        ^ "}"

  let to_prometheus t =
    let buf = Buffer.create 1024 in
    let typed = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let kind =
          match s.value with
          | Counter _ -> "counter"
          | Gauge _ -> "gauge"
          | Histogram _ -> "histogram"
        in
        if not (Hashtbl.mem typed s.name) then begin
          Hashtbl.add typed s.name ();
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.name kind)
        end;
        match s.value with
        | Counter v | Gauge v ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" s.name (render_labels s.labels)
                 (num v))
        | Histogram h ->
            let cumulative = ref 0 in
            List.iter2
              (fun bound count ->
                cumulative := !cumulative + count;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" s.name
                     (render_labels (s.labels @ [ ("le", num bound) ]))
                     !cumulative))
              h.bounds h.counts;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.name
                 (render_labels (s.labels @ [ ("le", "+Inf") ]))
                 h.count);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" s.name (render_labels s.labels)
                 (num h.sum));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" s.name
                 (render_labels s.labels) h.count))
      t;
    Buffer.contents buf
end

let snapshot = function
  | Null_reg -> []
  | Live { mutex; table } ->
      Mutex.lock mutex;
      let series =
        Hashtbl.fold
          (fun (name, labels) cell acc ->
            let value =
              match cell with
              | Ccounter c -> Snapshot.Counter c.c
              | Cgauge g -> Snapshot.Gauge g.g
              | Chist h ->
                  Snapshot.Histogram
                    {
                      bounds = Array.to_list h.bounds;
                      counts = Array.to_list h.counts;
                      overflow = h.overflow;
                      sum = h.sum;
                      count = h.count;
                    }
            in
            { Snapshot.name; labels; value } :: acc)
          table []
      in
      Mutex.unlock mutex;
      Snapshot.of_list series

(* ------------------------------------------------------------------ *)
(* campaign-cell accounting *)

let int_field j name = Option.bind (Json.member name j) Json.to_int

let record_cell reg payload =
  match reg with
  | Null_reg -> ()
  | Live _ -> (
      incr (counter reg "campaign_cells_total");
      match payload with
      | Error _ ->
          incr (counter reg "campaign_cell_errors_total");
          incr
            (counter reg ~labels:[ ("status", "engine-error") ]
               "campaign_statuses_total")
      | Ok j ->
          let grade, status = Campaign.classify_outcome_json j in
          incr
            (counter reg
               ~labels:[ ("grade", Campaign.cell_grade_label grade) ]
               "campaign_grades_total");
          incr
            (counter reg ~labels:[ ("status", status) ] "campaign_statuses_total");
          (match int_field j "rounds_used" with
          | Some r ->
              add (counter reg "campaign_rounds_total") (float_of_int r);
              observe (histogram reg "campaign_rounds_used") (float_of_int r)
          | None -> ());
          (match int_field j "honest_messages" with
          | Some m -> add (counter reg "campaign_honest_messages_total") (float_of_int m)
          | None -> ());
          (match int_field j "adversary_messages" with
          | Some m ->
              add (counter reg "campaign_adversary_messages_total") (float_of_int m)
          | None -> ());
          (match Json.member "faults" j with
          | Some (Json.Obj kinds) ->
              List.iter
                (fun (kind, v) ->
                  match Json.to_int v with
                  | Some n when n > 0 ->
                      add
                        (counter reg ~labels:[ ("kind", kind) ]
                           "campaign_faults_injected_total")
                        (float_of_int n)
                  | _ -> ())
                kinds
          | _ -> ());
          (match Json.member "watchdog_violations" j with
          | Some (Json.Arr vs) ->
              add
                (counter reg "campaign_watchdog_violations_total")
                (float_of_int (List.length vs))
          | _ -> ());
          (match Option.bind (Json.member "spread" j) Json.to_float with
          | Some s -> max_gauge (gauge reg "campaign_spread_max") s
          | None -> ()))

(* ------------------------------------------------------------------ *)
(* atomic file writes (stdlib only — same temp+rename discipline as the
   service checkpoints) *)

let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path
