(** Honest-party protocol logic as a pure state machine.

    A protocol is what one honest party runs: given its local state it emits
    this round's messages, then folds the round's inbox back into its state,
    and may at any point declare an output. The engine drives [n] copies in
    lock step. Purity (no shared mutable state between parties) is what
    makes executions reproducible and lets the adversary be maximally
    powerful without cheating. The one exception is a cache whose
    answers depend only on its key, which no party can observe:
    gradecast's [Multi.memo] shares round-3 tallies between the parties
    of a run. *)

type ('state, 'msg, 'out) t = {
  name : string;
  init : self:Types.party_id -> n:int -> 'state;
      (** Fresh state; the party's input is baked in by the caller (see
          e.g. [Realaa.Bdh.protocol], which closes over an input array). *)
  send :
    round:Types.round -> self:Types.party_id -> 'state ->
    (Types.party_id * 'msg) list;
      (** Messages to hand to the network this round. At most one message
          per recipient is kept (authenticated channels carry one message
          per pair per round); duplicates are an error in debug builds. *)
  receive :
    round:Types.round -> self:Types.party_id ->
    inbox:'msg Types.envelope list -> 'state -> 'state;
      (** Fold the round's inbox (sorted by sender) into the state. *)
  output : 'state -> 'out option;
      (** [Some o] once the party has decided. The engine freezes the party
          (it stops sending and receiving) the first time this returns
          [Some] — matching "produces an output and terminates". Protocols
          that must keep echoing after deciding delay their output
          instead. *)
}

val map_output : ('a -> 'b) -> ('s, 'm, 'a) t -> ('s, 'm, 'b) t

val sequential :
  name:string ->
  first:('s1, 'm1, 'o1) t ->
  rounds_of_first:int ->
  second:('o1 -> ('s2, 'm2, 'o2) t) ->
  (('s1, 'o1, 's2) Composed.state, ('m1, 'm2) Composed.msg, 'o2) t
(** [sequential ~first ~rounds_of_first ~second] runs [first], waits until
    round [rounds_of_first] ends (even for parties that decided earlier —
    the synchronisation barrier of TreeAA line 4), then runs [second] seeded
    with [first]'s output. Rounds of [second] are numbered from 1 in its own
    frame. Raises [Failure] at the barrier if [first] has not decided. *)
