(** One link's load and its admission controller, shared by
    {!Continuous_load} and every link of the network simulator.

    The link owns the admission sequence: {!observe}, {!room}, {!admit},
    {!depart} and {!renegotiate} change the load and show every change
    to the link's controller, so both simulators issue the same
    controller calls in the same order on the same observations.

    A dense slot table holds each reserved flow's granted rate, and the
    cross-sectional sums [(n, Σr, Σr²)] follow admissions, departures
    and renegotiations incrementally.  {!record_segment} accounts each
    constant-load segment into the link's {!Measurement} and tracks
    overflow episodes (maximal intervals with load above capacity); it
    reports episode transitions and leaves their telemetry to the
    caller.  The float expressions here are both simulators' output
    contract: a 1-link network reproduces [Continuous_load] bit for
    bit because both go through them. *)

type t

val create :
  capacity:float ->
  warmup:float ->
  batch_length:float ->
  controller:Mbac.Controller.t ->
  max_flows:int ->
  t
(** An empty link at time 0; [batch_length] is also the measurement's
    point-sampling spacing.  The link takes [controller] over: it is
    reset and shown the empty link.  {!room} never lets more than
    [max_flows] flows in. *)

val copy : t -> t
(** Deep copy, sharing no mutable state with the original: the
    controller is {!Mbac.Controller.copy}'d with it. *)

val capacity : t -> float
val measurement : t -> Measurement.t

val now : t -> float
(** End of the last recorded segment. *)

val n : t -> int
val sum_rate : t -> float
val sum_sq : t -> float
val observation : t -> Mbac.Observation.t

(** {1 Admission} *)

val observe : t -> Mbac.Observation.t
(** Show the controller the link's current state; returns that
    observation. *)

val room : t -> Mbac.Observation.t -> bool
(** The admission test on [obs], an observation the controller has
    seen: the controller allows more flows than the link carries, and
    fewer than [max_flows] are there.  Asks the controller once. *)

val admit : t -> rate:float -> int
(** Reserve a new flow granted [rate], show the controller the state
    after it and report the admission; returns the flow's slot (see
    {!Slots} for the reuse order). *)

val depart : t -> int -> Mbac.Observation.t
(** Free a live slot, show the controller the state after it and
    report the departure; returns that observation.  An emptied link's
    sums are reset to exactly zero, clearing float-cancellation
    residue. *)

val renegotiate : t -> int -> float -> Mbac.Observation.t
(** Grant a live slot a new rate and show the controller the state
    after it; returns that observation. *)

val rate : t -> int -> float
(** A live slot's granted rate. *)

val reserved : t -> int
val released : t -> int
val updates : t -> int
(** Counts of {!admit}, {!depart} and {!renegotiate} calls. *)

val resync : t -> unit
(** Recompute [Σr] and [Σr²] from the live slots, in slot order. *)

(** {1 Time} *)

type transition =
  | Steady
  | Opened  (** an overflow episode starts at the segment's start *)
  | Closed  (** the episode in progress ended at the segment's start *)

val record_segment : t -> t1:float -> transition
(** Account the current load on [[now, t1)], then advance {!now}. *)

val tick : t -> unit
(** Count one event.  Every 4,000,000th event {!resync}s: keyed on the
    link's own count, the resync lands at the same virtual instant
    however the link is scheduled. *)

val events : t -> int

(** {1 Overflow episodes} *)

val episodes : t -> int
(** Episodes opened so far. *)

val episode_start : t -> float
val episode_excess : t -> float
(** Start and [∫(load - capacity)dt] of the episode in progress, or of
    the last one closed. *)

val overflow_time : t -> float
(** Total duration of the closed episodes. *)

val close_episode : t -> bool
(** Close an episode still open at {!now} (run end); [false] when none
    was. *)
