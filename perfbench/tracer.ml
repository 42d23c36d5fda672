(* In-memory spans recorded by the benchmark around its calls into the
   library: name, start, end, parent and round, in flat growable arrays so
   that recording a span allocates nothing beyond the two clock readings.
   Spans are written out once, in Chrome trace-event form, after the run. *)

type t = {
  mutable len : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;  (** index of the parent span, or [-1] *)
  mutable rounds : int array;  (** engine round of the call, or [0] *)
}

let create () =
  let cap = 4096 in
  {
    len = 0;
    names = Array.make cap "";
    starts = Array.make cap 0.;
    stops = Array.make cap 0.;
    parents = Array.make cap (-1);
    rounds = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.;
  t.parents <- extend t.parents (-1);
  t.rounds <- extend t.rounds 0

let add t ~name ?(parent = -1) ?(round = 0) start stop =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.parents.(i) <- parent;
  t.rounds.(i) <- round;
  t.len <- i + 1;
  i

(* Reserve a span whose interval is only known later (a parent opened
   before its children); fill it in with [set]. *)
let reserve t ~name ?parent () = add t ~name ?parent 0. 0.

let set t i start stop =
  t.starts.(i) <- start;
  t.stops.(i) <- stop

let length t = t.len
let duration t i = t.stops.(i) -. t.starts.(i)

(* Self time per span name: each span's duration minus the durations of
   its direct children, summed over all spans of that name. *)
let self_times t =
  let child = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let prev = Option.value ~default:0. (Hashtbl.find_opt tbl t.names.(i)) in
    Hashtbl.replace tbl t.names.(i) (prev +. duration t i -. child.(i))
  done;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt tbl name)

let count t ~name =
  let c = ref 0 in
  for i = 0 to t.len - 1 do
    if t.names.(i) = name then incr c
  done;
  !c

(* Total duration of the spans satisfying [keep name round]. *)
let total t ~keep =
  let s = ref 0. in
  for i = 0 to t.len - 1 do
    if keep t.names.(i) t.rounds.(i) then s := !s +. duration t i
  done;
  !s

(* Durations of the spans named [name], in recording order. *)
let durations t ~name =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.names.(i) = name then acc := duration t i :: !acc
  done;
  !acc

(* Chrome trace-event JSON (chrome://tracing, Perfetto) via the library's
   own span collector. Parents precede their children in the arrays, so
   collector ids can be assigned in one pass. *)
let to_chrome t =
  let c = Treeagree.Obs_span.create ~clock:(fun () -> 0.) () in
  Treeagree.Obs_span.process_name c "perfbench";
  let ids = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let parent = if t.parents.(i) >= 0 then Some ids.(t.parents.(i)) else None in
    let args =
      if t.rounds.(i) > 0 then
        [ ("round", Aat_telemetry.Jsonx.Num (float_of_int t.rounds.(i))) ]
      else []
    in
    ids.(i) <-
      Treeagree.Obs_span.complete c ?parent ~args ~name:t.names.(i)
        ~start:t.starts.(i) ~stop:t.stops.(i) ()
  done;
  Treeagree.Obs_span.to_json c
