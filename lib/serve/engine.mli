(** The online admission-decision engine.

    One engine serves one link.  The execution model is wall-clock
    concurrency (unlike the Domain-pool replication everywhere else in
    the tree):

    - the {e decision fast path} ({!decide}) is wait-free — it reads the
      admitted-flow/admitted-load counters ([Atomic] integers, load in
      fixed point) and the current {!published} estimate record
      ([Atomic.get] of an immutable value) and never takes a lock,
      blocks, or allocates anything but its small result;
    - the {e accounting path} ({!add}/{!subtract}) is lock-free —
      fetch-and-add on the counters;
    - the {e measurement path} ({!run_measurement}) is the only place
      the estimator state is touched.  It reads the counters as one
      cross-section, feeds the estimator, and publishes the estimate
      (mû, σ̂²) in a fresh immutable record with a single [Atomic.set].
      Deciders can never observe a torn estimate: they either see the
      whole old record or the whole new one.  Measurement runs inline
      every [measure_every]-th accounting call (deterministic,
      single-threaded replay) or on a background domain
      ({!start_background}, wall-clock daemons).

    Loads cross the counter boundary in fixed point at {!fp_scale}
    units per load unit, so per-flow loads are quantized to
    [1/fp_scale] (documented in SERVING.md); the same quantization is
    applied on every path, which is what makes replay byte-exact. *)

type config = {
  capacity : float;              (** initial link capacity (> 0, finite) *)
  criteria : (string * Mbac.Policy.t) list;
      (** named admission policies — the simulators' controllers decide
          through the same {!Mbac.Policy}; nonempty; [Decide] indexes
          into it, and the name labels the decision log *)
  estimator : Mbac.Estimator.t;
      (** owned by the engine's measurement path from here on; do not
          observe or read it elsewhere *)
  measure_every : int;
      (** [k >= 1]: run a measurement pass synchronously after every
          [k]-th {!add}/{!subtract} (deterministic).  [0]: no inline
          measurement — drive {!run_measurement} externally or with
          {!start_background}. *)
}

type t

type decision = { admit : bool; admissible : int; flows : int }

type stats = {
  flows : int;
  admitted_load : float;
  capacity : float;
  requests : int;
  decisions : int;
  admits : int;
  updates : int;
}

val fp_scale : int
(** Fixed-point units per load unit (2{^20}). *)

val create : ?decision_log:Buffer.t -> config -> t
(** @raise Invalid_argument on empty criteria, non-finite or
    non-positive [capacity], negative [measure_every], or more than
    65535 criteria. *)

val criterion_names : t -> string array

val initialize : t -> capacity:float -> unit
(** Zero the counters, reset the estimator, publish a bootstrap record
    against the new capacity.
    @raise Invalid_argument on non-finite or non-positive capacity. *)

val decide : t -> criterion:int -> load:float -> decision
(** Wait-free.  Admit iff [flows < M(criterion)] {e and} the admitted
    load plus [load] fits the capacity, where [M] is
    {!Mbac.Policy.admissible} of the criterion's policy under the
    published estimate and the current flow count — the number a
    controller of the same policy answers on the same cross-section,
    including its cautious bootstrap ([M = flows + 1] while no usable
    estimate is published).
    Counts into the [serve_decisions/admit/reject] metrics.  The caller
    is responsible for [criterion] being in range and [load] being
    finite and non-negative ({!handle} validates wire input). *)

val add : t -> load:float -> now:float -> unit
(** Lock-free accounting of an admitted flow; [now] is the virtual (or
    wall) time stamped on the cross-section if this call triggers an
    inline measurement pass. *)

val subtract : t -> load:float -> now:float -> unit

val log_decision : t -> criterion:int -> admit:bool -> unit
(** Append one JSONL line (server-assigned [seq]) to the decision log;
    no-op (but still sequence-advancing) without one. *)

val run_measurement : t -> now:float -> unit
(** One measurement pass (serialized by an internal mutex): counters →
    cross-section → estimator → publish the estimate. *)

val stats : t -> stats

val handle : t -> Protocol.request -> Protocol.response
(** Full request dispatch with wire-input validation: out-of-range
    criterion indices and non-finite/negative loads or capacities come
    back as [Error_reply] (codes 1 capacity, 2 criterion, 3 load), not
    exceptions.  [Shutdown] answers [Ok_reply]; acting on it is the
    transport's job. *)

val start_background : t -> interval:float -> unit
(** Spawn a measurement domain running {!run_measurement} every
    [interval] wall-clock seconds (cross-sections stamped with wall
    time).  @raise Invalid_argument if one is already running or
    [interval <= 0]. *)

val stop_background : t -> unit
(** Stop and join the measurement domain, folding its telemetry shard
    into the calling domain's. *)
