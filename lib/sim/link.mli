(** One link's load: what every admission decision on the link reads,
    shared by {!Continuous_load} and every link of the network
    simulator.

    A dense slot table holds each reserved flow's granted rate, and the
    cross-sectional sums [(n, Σr, Σr²)] follow {!reserve}, {!release}
    and {!set_rate} incrementally.  {!record_segment} accounts each
    constant-load segment into the link's {!Measurement} and tracks
    overflow episodes (maximal intervals with load above capacity); it
    reports episode transitions and leaves their telemetry to the
    caller.  The float expressions here are both simulators' output
    contract: a 1-link network reproduces [Continuous_load] bit for
    bit because both go through them. *)

type t

val create : capacity:float -> warmup:float -> batch_length:float -> t
(** An empty link at time 0; [batch_length] is also the measurement's
    point-sampling spacing. *)

val copy : t -> t
(** Deep copy, sharing no mutable state with the original. *)

val capacity : t -> float
val measurement : t -> Measurement.t

val now : t -> float
(** End of the last recorded segment. *)

val n : t -> int
val sum_rate : t -> float
val sum_sq : t -> float
val observation : t -> Mbac.Observation.t

(** {1 Slot table} *)

val reserve : t -> rate:float -> int
(** Grant a new flow [rate]; returns its slot (see {!Slots} for the
    reuse order). *)

val release : t -> int -> unit
(** Free a live slot.  An emptied link's sums are reset to exactly
    zero, clearing float-cancellation residue. *)

val rate : t -> int -> float
val set_rate : t -> int -> float -> unit

val reserved : t -> int
val released : t -> int
val updates : t -> int
(** Counts of {!reserve}, {!release} and {!set_rate} calls. *)

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
