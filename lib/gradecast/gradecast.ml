open Aat_engine

type grade = G0 | G1 | G2

let grade_to_int = function G0 -> 0 | G1 -> 1 | G2 -> 2

let pp_grade fmt g = Format.fprintf fmt "%d" (grade_to_int g)

type 'v result = { value : 'v option; grade : grade }

module Multi = struct
  type 'v msg =
    | Value of 'v (* round 1: leader's value for its own instance *)
    | Echo of 'v option array (* round 2: echo.(leader) *)
    | Vote of 'v option array (* round 3: vote.(leader) *)

  (* One published plurality pass: [key] holds the row pointers of the
     table it was computed from (a copy, since tables are updated in
     place), [tally.(leader)] that column's [plurality]. Immutable once
     published. *)
  type 'v snapshot = {
    key : 'v option array array;
    tally : ('v * int) option array;
  }

  type 'v memo = {
    last : 'v snapshot Atomic.t;
    blank : 'v option array Atomic.t;
        (* the all-[None] row every party's fresh table starts from *)
  }

  let memo () =
    { last = Atomic.make { key = [||]; tally = [||] }; blank = Atomic.make [||] }

  type 'v state = {
    n : int;
    t : int;
    self : Types.party_id;
    own : 'v;
    memo : 'v memo;
    heard : 'v option array; (* round-1 value per leader *)
    echoes : 'v option array array; (* echoes.(sender).(leader) *)
    votes : 'v option array array; (* votes.(sender).(leader) *)
    finished : 'v result array option;
  }

  let rounds = 3

  let blank_row memo n =
    let b = Atomic.get memo.blank in
    if Array.length b = n then b
    else begin
      let b = Array.make n None in
      Atomic.set memo.blank b;
      b
    end

  let start ~memo ~n ~t ~self ~own =
    (* [echoes] and [votes] start with every sender slot pointing at one
       shared all-[None] row: a slot is only ever {e replaced} wholesale
       when that sender's row arrives (see [receive]), never mutated in
       place, so the sharing is invisible — and state creation is O(n)
       instead of the O(n²) of two materialised matrices (which made
       running n parallel instances Θ(n³) before a single message moved).
       The row comes from the memo, so every party of a run starts from
       the same one: a sender missing at every party (crashed, silent,
       blacklisted) leaves physically equal slots and still lets the
       tables hit the memo. *)
    let empty = blank_row memo n in
    {
      n;
      t;
      self;
      own;
      memo;
      heard = Array.make n None;
      echoes = Array.make n empty;
      votes = Array.make n empty;
      finished = None;
    }

  let next st ~own = start ~memo:st.memo ~n:st.n ~t:st.t ~self:st.self ~own

  let broadcast st m = List.init st.n (fun p -> (p, m))

  (* The most frequent [Some] entry of column [leader] in [table], with its
     multiplicity. Ties break toward the smaller value (total order via
     polymorphic compare) so every honest party resolves them identically.
     Distinct values are counted in flat parallel buffers probed with
     [compare]-equality — the same grouping the polymorphic [Hashtbl] this
     replaces used for its keys. A gradecast column holds very few
     distinct values (honest senders echo identically), so the linear
     probe beats hashing; the winner criterion is order-independent, so
     the change cannot move any result. The probe tries [==] first: one
     physical value echoed by many senders is the common case, and
     physical equality implies [compare = 0] (NaN included). The buffers
     store the row's own [Some] cell, so a probe allocates nothing. *)
  let plurality table leader =
    let vals : 'v option array ref = ref (Array.make 8 None) in
    let counts = ref (Array.make 8 0) in
    let d = ref 0 in
    for r = 0 to Array.length table - 1 do
      match table.(r).(leader) with
      | None -> ()
      | Some v as cell ->
          let i = ref 0 in
          while
            !i < !d
            &&
            match !vals.(!i) with
            | Some u -> not (u == v || compare u v = 0)
            | None -> true
          do
            incr i
          done;
          if !i < !d then !counts.(!i) <- !counts.(!i) + 1
          else begin
            if !d = Array.length !vals then begin
              let nv = Array.make (2 * !d) None in
              Array.blit !vals 0 nv 0 !d;
              vals := nv;
              let nc = Array.make (2 * !d) 0 in
              Array.blit !counts 0 nc 0 !d;
              counts := nc
            end;
            !vals.(!d) <- cell;
            !counts.(!d) <- 1;
            incr d
          end
    done;
    let best = ref None in
    for i = 0 to !d - 1 do
      match !vals.(i) with
      | Some v -> (
          let c = !counts.(i) in
          match !best with
          | None -> best := Some (v, c)
          | Some (bv, bc) ->
              if c > bc || (c = bc && compare v bv < 0) then best := Some (v, c)
          )
      | None -> ()
    done;
    !best

  (* Every column's [plurality], shared across the parties of a run. The
     parties store the same broadcast rows by reference, so a table whose
     row pointers all equal the last snapshot's key has the same contents
     and hence the same tallies: the O(n) pointer comparison stands in for
     the O(n²) pass. This is sound only because no row is ever mutated
     after it is posted (see [receive]). A miss computes the tallies as
     before and publishes them; the atomic swap keeps concurrent readers
     on some complete snapshot, whichever one wins. *)
  let tallies memo table =
    let n = Array.length table in
    let snap = Atomic.get memo.last in
    let key = snap.key in
    let rec same i = i = n || (key.(i) == table.(i) && same (i + 1)) in
    if Array.length key = n && same 0 then snap.tally
    else begin
      let tally = Array.init n (plurality table) in
      Atomic.set memo.last { key = Array.copy table; tally };
      tally
    end

  let send ~round st =
    match round with
    | 1 -> broadcast st (Value st.own)
    | 2 -> broadcast st (Echo (Array.copy st.heard))
    | 3 ->
        (* Vote for each leader's value that at least n - t parties echoed;
           otherwise abstain on that instance. *)
        let vote =
          Array.map
            (function
              | Some (v, c) when c >= st.n - st.t -> Some v
              | Some _ | None -> None)
            (tallies st.memo st.echoes)
        in
        broadcast st (Vote vote)
    | _ -> invalid_arg "Gradecast.Multi.send: round out of range"

  (* State updates are in place: both engines treat protocol state
     linearly (the pre-receive state is discarded as soon as the
     post-receive one exists), so copying the full echo/vote matrix per
     received letter — Θ(n²) each, Θ(n³) per round across parties — bought
     nothing. Received rows are stored {e by reference}: the sender built
     (or copied) the row before broadcast and no reader ever mutates a
     stored row, so one physical row may back many parties' tables. The
     memo ([tallies]) relies on this: it answers for a table by the
     identity of its rows, so a row mutated after posting would be
     served another table's tallies. An adversary crafting [Echo]/[Vote]
     payloads must hand over fresh rows it does not mutate afterwards —
     every in-repo strategy does. *)
  let receive ~round ~inbox st =
    match round with
    | 1 ->
        List.iter
          (fun (e : _ Types.envelope) ->
            match e.payload with
            | Value v -> st.heard.(e.sender) <- Some v
            | Echo _ | Vote _ -> ())
          inbox;
        st
    | 2 ->
        List.iter
          (fun (e : _ Types.envelope) ->
            match e.payload with
            | Echo row when Array.length row = st.n -> st.echoes.(e.sender) <- row
            | Echo _ | Value _ | Vote _ -> ())
          inbox;
        st
    | 3 ->
        List.iter
          (fun (e : _ Types.envelope) ->
            match e.payload with
            | Vote row when Array.length row = st.n -> st.votes.(e.sender) <- row
            | Vote _ | Value _ | Echo _ -> ())
          inbox;
        let finished =
          Array.map
            (function
              | Some (v, c) when c >= st.n - st.t -> { value = Some v; grade = G2 }
              | Some (v, c) when c >= st.t + 1 -> { value = Some v; grade = G1 }
              | Some _ | None -> { value = None; grade = G0 })
            (tallies st.memo st.votes)
        in
        (if Aat_telemetry.Telemetry.Probe.active () then begin
           let g0 = ref 0 and g1 = ref 0 and g2 = ref 0 in
           Array.iter
             (fun r ->
               match r.grade with
               | G0 -> incr g0
               | G1 -> incr g1
               | G2 -> incr g2)
             finished;
           Aat_telemetry.Telemetry.Probe.grade_histogram ~g0:!g0 ~g1:!g1 ~g2:!g2
         end);
        { st with finished = Some finished }
    | _ -> invalid_arg "Gradecast.Multi.receive: round out of range"

  let results st =
    match st.finished with
    | Some r -> Array.copy r
    | None -> invalid_arg "Gradecast.Multi.results: protocol not finished"
end

let protocol ~leader ~inputs ~t =
  let memo = Multi.memo () in
  {
    Protocol.name = "gradecast";
    init = (fun ~self ~n -> Multi.start ~memo ~n ~t ~self ~own:(inputs self));
    send = (fun ~round ~self:_ st -> Multi.send ~round st);
    receive = (fun ~round ~self:_ ~inbox st -> Multi.receive ~round ~inbox st);
    output =
      (fun st ->
        match st.Multi.finished with
        | Some results -> Some results.(leader)
        | None -> None);
  }
