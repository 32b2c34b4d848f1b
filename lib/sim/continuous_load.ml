type arrival = [ `Infinite | `Poisson of float ]
type link = [ `Bufferless | `Renegotiation_blocking | `Buffered of float ]

type config = {
  capacity : float;
  holding_time_mean : float;
  arrival : arrival;
  link : link;
  utility : Mbac.Utility.t;
  warmup : float;
  batch_length : float;
  target_p_q : float;
  rel_ci : float;
  confidence : float;
  min_batches : int;
  check_every_events : int;
  max_time : float;
  max_events : int;
  max_flows : int;
}

let default_config ~capacity ~holding_time_mean ~target_p_q =
  { capacity; holding_time_mean;
    arrival = `Infinite;
    link = `Bufferless;
    utility = Mbac.Utility.Step;
    warmup = holding_time_mean;
    batch_length = holding_time_mean /. 5.0;
    target_p_q;
    rel_ci = 0.2;
    confidence = 0.95;
    min_batches = 16;
    check_every_events = 20_000;
    max_time = 1e12;
    max_events = 200_000_000;
    max_flows = 10_000_000 }

type result = {
  p_f : float;
  estimate_kind : [ `Direct | `Gaussian_fit ];
  converged : bool;
  ci_rel : float;
  mean_flows : float;
  mean_load : float;
  std_load : float;
  utilization : float;
  mean_utility : float;
  admitted : int;
  departed : int;
  blocked : int;
  blocking_probability : float;
  reneg_attempts : int;
  reneg_failures : int;
  reneg_failure_probability : float;
  buffer_loss_fraction : float;
  p_f_point : float;
  sim_time : float;
  events : int;
}

(* Events are packed into the queue's native-int payload so pushing and
   popping never allocates: a 2-bit tag, a 24-bit flow slot, and the
   slot's generation above.  The generation stamps queue entries against
   slot reuse: a [Change] left pending by a departed flow must not touch
   the slot's next occupant, so handlers compare the payload generation
   with the slot's current one and drop stale events — the job flow ids
   did under the old hashtable (ids were never reused). *)
let tag_arrive = 0
let tag_depart = 1
let tag_change = 2
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let[@inline] encode ~tag ~slot ~gen = tag lor (slot lsl 2) lor (gen lsl (slot_bits + 2))
let[@inline] payload_tag p = p land 3
let[@inline] payload_slot p = (p lsr 2) land slot_mask
let[@inline] payload_gen p = p lsr (slot_bits + 2)

(* Time-series cursors: the flow/event totals live in plain [state]
   fields on the hot path and are folded into the telemetry shard once
   per run — or, when [--series-out] wants live windows, once per window
   boundary.  The cursor remembers how much of each total has been
   folded so far, so boundary syncs add exact deltas and the end-of-run
   remainder reproduces today's one-shot totals bit for bit. *)
type cursor = {
  mutable c_events : int;
  mutable c_admitted : int;
  mutable c_departed : int;
  mutable c_blocked : int;
  mutable c_reneg_attempts : int;
  mutable c_reneg_failures : int;
  mutable c_time : float;
}

(* The link's load lives in [link]; its slot table doubles as the flow
   table: [sources] and [gens] are indexed by the same slots.  The
   link's granted rate equals the source's desired rate except when an
   upward renegotiation was blocked under [`Renegotiation_blocking].  A
   slot is live iff [sources.(slot)] is [Some _]; its generation counts
   how many flows have occupied it.  Admissions, departures and
   renegotiations are the link's [reserved], [released] and [updates]
   counts. *)
type state = {
  cfg : config;
  arrival_mean : float; (* 1/rate for `Poisson, hoisted; nan for `Infinite *)
  rng : Mbac_stats.Rng.t;
  controller : Mbac.Controller.t;
  make_source : Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t;
  queue : Calendar_queue.t;
  link : Link.t;
  mutable sources : Mbac_traffic.Source.t option array;
  mutable gens : int array;
  buffer : Fluid_buffer.t option;
  utility_stats : Mbac_stats.Welford.Weighted.t;
  flow_count_stats : Mbac_stats.Welford.Weighted.t;
  (* next trace snapshot and time-series boundary (inf when off); stored
     only at those boundaries, so boxing the stores costs nothing *)
  mutable next_snapshot : float;
  mutable next_window : float;
  mutable blocked : int;
  mutable reneg_failures : int;
  cursor : cursor;
}

(* Episode counters fire on every overflow-episode boundary; resolve
   their names once instead of hashing per update. *)
let m_ovf_episodes = Mbac_telemetry.Metrics.Handle.counter "sim_overflow_episodes_total"
let m_ovf_time = Mbac_telemetry.Metrics.Handle.sum "sim_overflow_time"
let m_ovf_excess = Mbac_telemetry.Metrics.Handle.sum "sim_overflow_excess_volume"

(* Normalized by batch_length so the histogram shape is identical across
   sweep cells with different batch lengths (shards with
   differently-shaped same-name histograms cannot merge). *)
let m_ovf_duration =
  Mbac_telemetry.Metrics.Handle.histogram "sim_overflow_episode_duration_batches"
    ~lo:0.0 ~hi:20.0 ~bins:40

(* Same duration, raw (seconds of virtual time) in a log-bucketed
   quantile histogram: scale-free, so episodes past 20 batch lengths —
   overflow of the fixed-bucket shape above — keep a readable p99. *)
let m_ovf_duration_s =
  Mbac_telemetry.Metrics.Handle.qhist "sim_overflow_episode_duration_seconds"

(* Run totals, folded in by [sync_counters] (per window boundary when
   the time series is on, once per run otherwise). *)
let m_events = Mbac_telemetry.Metrics.Handle.counter "sim_events_total"
let m_admitted = Mbac_telemetry.Metrics.Handle.counter "sim_flows_admitted_total"
let m_departed = Mbac_telemetry.Metrics.Handle.counter "sim_flows_departed_total"
let m_blocked = Mbac_telemetry.Metrics.Handle.counter "sim_flows_blocked_total"
let m_reneg_attempts =
  Mbac_telemetry.Metrics.Handle.counter "sim_reneg_attempts_total"
let m_reneg_failures =
  Mbac_telemetry.Metrics.Handle.counter "sim_reneg_failures_total"
let m_time = Mbac_telemetry.Metrics.Handle.sum "sim_time_simulated"

(* Sampled at each window close, for the series' gauge section. *)
let g_window_flows = Mbac_telemetry.Metrics.Handle.gauge "sim_window_flows"
let g_window_load = Mbac_telemetry.Metrics.Handle.gauge "sim_window_load"

let grow_flow_table s =
  let extra = max 1024 (Array.length s.sources) in
  s.sources <- Array.append s.sources (Array.make extra None);
  s.gens <- Array.append s.gens (Array.make extra 0)

(* Returns the granted rate so callers can advance their observation
   incrementally ({!Mbac.Observation.admit}) instead of re-reading the
   state they just updated. *)
let admit_one s =
  let now = Link.now s.link in
  let source = s.make_source s.rng ~start:now in
  let r = Mbac_traffic.Source.rate source in
  let slot = Link.reserve s.link ~rate:r in
  if slot > slot_mask then
    invalid_arg "Continuous_load: more concurrent flows than slot bits";
  if slot = Array.length s.sources then grow_flow_table s;
  let gen = s.gens.(slot) in
  s.sources.(slot) <- Some source;
  let holding =
    Mbac_stats.Sample.exponential s.rng ~mean:s.cfg.holding_time_mean
  in
  Calendar_queue.push s.queue ~time:(now +. holding)
    (encode ~tag:tag_depart ~slot ~gen);
  Calendar_queue.push s.queue ~time:(Mbac_traffic.Source.next_change source)
    (encode ~tag:tag_change ~slot ~gen);
  r

(* One admission decision on [obs], which must describe the current
   state: admit a fresh flow if the controller allows one more, and
   return the observation after it.  The admission is observed before
   any further decision, so the controller reacts to its own
   admissions. *)
let admit_if_room s obs =
  let m = Mbac.Controller.admissible s.controller obs in
  let n = Link.n s.link in
  if n < m && n < s.cfg.max_flows then begin
    let obs' = Mbac.Observation.admit obs ~rate:(admit_one s) in
    Mbac.Controller.observe s.controller obs';
    Mbac.Controller.on_admit s.controller obs';
    Some obs'
  end
  else None

(* Infinite offered load: admit while the controller allows more flows
   than are present.  Callers have always just built [obs] for their
   own controller notification, so the common no-admission case costs
   no fresh observation. *)
let rec try_admit s obs =
  match admit_if_room s obs with Some obs' -> try_admit s obs' | None -> ()

(* One arriving flow under the Poisson process: a single yes/no decision. *)
let handle_arrival s =
  let obs = Link.observation s.link in
  Mbac.Controller.observe s.controller obs;
  if Option.is_none (admit_if_room s obs) then s.blocked <- s.blocked + 1;
  Calendar_queue.push s.queue
    ~time:
      (Link.now s.link
      +. Mbac_stats.Sample.exponential s.rng ~mean:s.arrival_mean)
    tag_arrive

(* Overflow-episode telemetry, on the transitions [Link.record_segment]
   reports (and on the episode still open at run end).  Counters are
   always on; the start/end trace events only render when tracing is
   enabled (and their field lists are only built then). *)
let episode_opened s ~t0 =
  if Mbac_telemetry.Trace.enabled () then
    Mbac_telemetry.Trace.emit ~t:t0 ~kind:"overflow_start"
      [ ("load", Mbac_telemetry.Trace.Float (Link.sum_rate s.link));
        ("capacity", Mbac_telemetry.Trace.Float s.cfg.capacity);
        ("n", Mbac_telemetry.Trace.Int (Link.n s.link)) ]

let episode_closed s ~t ~truncated =
  let start = Link.episode_start s.link in
  let excess = Link.episode_excess s.link in
  let duration = t -. start in
  Mbac_telemetry.Metrics.Handle.inc m_ovf_episodes;
  Mbac_telemetry.Metrics.Handle.add m_ovf_time duration;
  Mbac_telemetry.Metrics.Handle.add m_ovf_excess excess;
  Mbac_telemetry.Metrics.Handle.observe m_ovf_duration
    (duration /. s.cfg.batch_length);
  Mbac_telemetry.Metrics.Handle.observe_q m_ovf_duration_s duration;
  if Mbac_telemetry.Trace.enabled () then
    Mbac_telemetry.Trace.emit ~t ~kind:"overflow_end"
      ([ ("start", Mbac_telemetry.Trace.Float start);
         ("duration", Mbac_telemetry.Trace.Float duration);
         ("excess_volume", Mbac_telemetry.Trace.Float excess) ]
      @ if truncated then [ ("truncated", Mbac_telemetry.Trace.Bool true) ]
        else [])

(* Periodic estimator snapshots on a fixed virtual-time grid (one per
   batch), emitted only while tracing: the running cross-sectional
   estimate next to the measured overflow fraction so far. *)
let emit_snapshots s ~t1 =
  while s.next_snapshot <= t1 do
    let t = s.next_snapshot in
    s.next_snapshot <- s.next_snapshot +. s.cfg.batch_length;
    let obs = Link.observation s.link in
    Mbac_telemetry.Trace.emit ~t ~kind:"estimator"
      [ ("n", Mbac_telemetry.Trace.Int (Link.n s.link));
        ("load", Mbac_telemetry.Trace.Float (Link.sum_rate s.link));
        ("mu_hat", Mbac_telemetry.Trace.Float (Mbac.Observation.cross_mean obs));
        ("sigma_hat",
         Mbac_telemetry.Trace.Float (sqrt (Mbac.Observation.cross_variance obs)));
        ("p_f_running",
         Mbac_telemetry.Trace.Float
           (Measurement.overflow_fraction (Link.measurement s.link))) ]
  done

(* Fold the not-yet-folded part of each running total into the shard.
   Unconditional increments (even by 0) so every counter registers —
   the snapshot's name set must not depend on what a run happened to
   do.  [upto] caps the virtual-time delta at the window boundary being
   closed (or the final [now] at run end). *)
let sync_counters s ~upto =
  let c = s.cursor in
  let l = s.link in
  Mbac_telemetry.Metrics.Handle.inc m_events ~by:(Link.events l - c.c_events);
  c.c_events <- Link.events l;
  Mbac_telemetry.Metrics.Handle.inc m_admitted
    ~by:(Link.reserved l - c.c_admitted);
  c.c_admitted <- Link.reserved l;
  Mbac_telemetry.Metrics.Handle.inc m_departed
    ~by:(Link.released l - c.c_departed);
  c.c_departed <- Link.released l;
  Mbac_telemetry.Metrics.Handle.inc m_blocked ~by:(s.blocked - c.c_blocked);
  c.c_blocked <- s.blocked;
  Mbac_telemetry.Metrics.Handle.inc m_reneg_attempts
    ~by:(Link.updates l - c.c_reneg_attempts);
  c.c_reneg_attempts <- Link.updates l;
  Mbac_telemetry.Metrics.Handle.inc m_reneg_failures
    ~by:(s.reneg_failures - c.c_reneg_failures);
  c.c_reneg_failures <- s.reneg_failures;
  Mbac_telemetry.Metrics.Handle.add m_time (upto -. c.c_time);
  c.c_time <- upto

(* Time-series boundaries crossed by the segment ending at [t1]: close
   each window on the virtual-time grid — fold counter deltas, sample
   the window gauges, render the line.  Out of line and gated on the
   enabled flag in [record_segment], so the hot path pays one atomic
   read when the series is off. *)
let emit_windows s ~t1 =
  while s.next_window <= t1 do
    let b = s.next_window in
    s.next_window <- b +. Mbac_telemetry.Timeseries.interval ();
    sync_counters s ~upto:b;
    Mbac_telemetry.Metrics.Handle.set_gauge g_window_flows
      (float_of_int (Link.n s.link));
    Mbac_telemetry.Metrics.Handle.set_gauge g_window_load (Link.sum_rate s.link);
    Mbac_telemetry.Timeseries.emit_window ~t:b
  done

let feed_buffer s b ~t0 ~t1 =
  (* feed through the warm-up (to build up a realistic level) but
     discard the counters at the warm-up boundary, like the overflow
     measurement does *)
  let load = Link.sum_rate s.link in
  if t0 < s.cfg.warmup && t1 > s.cfg.warmup then begin
    Fluid_buffer.feed b ~duration:(s.cfg.warmup -. t0) ~load;
    Fluid_buffer.reset_statistics b;
    Fluid_buffer.feed b ~duration:(t1 -. s.cfg.warmup) ~load
  end
  else begin
    Fluid_buffer.feed b ~duration:(t1 -. t0) ~load;
    if t1 <= s.cfg.warmup then Fluid_buffer.reset_statistics b
  end

(* No loops anywhere on the common path below (the snapshot loop is out
   of line and trace-gated), so this inlines into [fire] and
   the segment endpoints never box. *)
let[@inline] record_segment s ~t1 =
  let t0 = Link.now s.link in
  (match Link.record_segment s.link ~t1 with
  | Link.Steady -> ()
  | Link.Opened -> episode_opened s ~t0
  | Link.Closed -> episode_closed s ~t:t0 ~truncated:false);
  if Mbac_telemetry.Trace.enabled () then emit_snapshots s ~t1;
  if Mbac_telemetry.Timeseries.enabled () then emit_windows s ~t1;
  (match s.buffer with
  | Some b when t1 > t0 -> feed_buffer s b ~t0 ~t1
  | Some _ | None -> ());
  if t1 > s.cfg.warmup then begin
    let t0' = Float.max t0 s.cfg.warmup in
    let w = t1 -. t0' in
    Mbac_stats.Welford.Weighted.add s.flow_count_stats ~weight:w
      (float_of_int (Link.n s.link));
    let f =
      Mbac.Utility.delivered_fraction ~capacity:s.cfg.capacity
        ~load:(Link.sum_rate s.link)
    in
    Mbac_stats.Welford.Weighted.add s.utility_stats ~weight:w
      (Mbac.Utility.eval s.cfg.utility f)
  end

(* Infinite load refills the link after every event; Poisson arrivals
   are their own events. *)
let[@inline] refill s obs =
  match s.cfg.arrival with
  | `Infinite -> try_admit s obs
  | `Poisson _ -> ()

let handle_depart s slot gen =
  match s.sources.(slot) with
  | Some _ when s.gens.(slot) = gen ->
      s.sources.(slot) <- None;
      s.gens.(slot) <- gen + 1;
      Link.release s.link slot;
      let obs = Link.observation s.link in
      Mbac.Controller.observe s.controller obs;
      Mbac.Controller.on_depart s.controller obs;
      refill s obs
  | Some _ | None ->
      (* cannot happen for departures; kept safe *)
      refill s (Link.observation s.link)

let handle_change s slot gen =
  match s.sources.(slot) with
  | Some source when s.gens.(slot) = gen ->
      let old_granted = Link.rate s.link slot in
      Mbac_traffic.Source.fire source ~now:(Link.now s.link);
      let desired = Mbac_traffic.Source.rate source in
      (* The paper's RCBR service (§2): "bandwidth renegotiations fail
         when the current aggregate bandwidth demand exceeds the link
         capacity".  We count an upward renegotiation as failed when
         the post-change aggregate demand exceeds capacity.  The
         dynamics remain those of the bufferless demand model: the
         admission controller sees demands (a failed flow keeps
         requesting), so blocking does not silently deflate the
         measured load. *)
      (match s.cfg.link with
      | `Renegotiation_blocking
        when desired > old_granted
             && Link.sum_rate s.link -. old_granted +. desired
                > s.cfg.capacity ->
          s.reneg_failures <- s.reneg_failures + 1
      | `Renegotiation_blocking | `Bufferless | `Buffered _ -> ());
      Link.set_rate s.link slot desired;
      Calendar_queue.push s.queue
        ~time:(Mbac_traffic.Source.next_change source)
        (encode ~tag:tag_change ~slot ~gen);
      let obs = Link.observation s.link in
      Mbac.Controller.observe s.controller obs;
      refill s obs
  | Some _ | None ->
      (* stale event of a departed flow (or of a reused slot) *)
      refill s (Link.observation s.link)

(* Account the segment up to the event, then fire it.  [te] is the
   event's time and [payload] its packed tag/slot/generation. *)
let[@inline] fire s ~te payload =
  record_segment s ~t1:te;
  let tag = payload_tag payload in
  if tag = tag_change then
    handle_change s (payload_slot payload) (payload_gen payload)
  else if tag = tag_depart then
    handle_depart s (payload_slot payload) (payload_gen payload)
  else handle_arrival s;
  Link.tick s.link

(* ------------------------------------------------------------------ *)
(* Stepping API: the same machinery as [run], exposed one event at a
   time so the rare-event splitting engine can watch the load between
   events and snapshot/clone mid-run. *)

type sim = state

let start rng cfg ~controller ~make_source =
  if cfg.capacity <= 0.0 then invalid_arg "Continuous_load.run: capacity <= 0";
  if cfg.holding_time_mean <= 0.0 then
    invalid_arg "Continuous_load.run: holding_time_mean <= 0";
  (match cfg.arrival with
  | `Poisson rate when rate <= 0.0 ->
      invalid_arg "Continuous_load.run: Poisson rate <= 0"
  | `Poisson _ | `Infinite -> ());
  Mbac.Controller.reset controller;
  let s =
    { cfg;
      arrival_mean =
        (match cfg.arrival with
        | `Poisson rate -> 1.0 /. rate
        | `Infinite -> nan);
      rng; controller; make_source;
      queue = Calendar_queue.create ();
      link =
        Link.create ~capacity:cfg.capacity ~warmup:cfg.warmup
          ~batch_length:cfg.batch_length;
      sources = [||];
      gens = [||];
      buffer =
        (match cfg.link with
        | `Buffered size -> Some (Fluid_buffer.create ~capacity:cfg.capacity ~size)
        | `Bufferless | `Renegotiation_blocking -> None);
      utility_stats = Mbac_stats.Welford.Weighted.create ();
      flow_count_stats = Mbac_stats.Welford.Weighted.create ();
      next_snapshot = cfg.warmup;
      next_window =
        (if Mbac_telemetry.Timeseries.enabled () then
           Mbac_telemetry.Timeseries.interval ()
         else Float.infinity);
      blocked = 0; reneg_failures = 0;
      cursor =
        { c_events = 0; c_admitted = 0; c_departed = 0; c_blocked = 0;
          c_reneg_attempts = 0; c_reneg_failures = 0; c_time = 0.0 } }
  in
  Mbac_telemetry.Timeseries.start_run
    ~label:(Mbac.Controller.name controller);
  if Mbac_telemetry.Trace.enabled () then
    Mbac_telemetry.Trace.emit ~t:0.0 ~kind:"run_start"
      [ ("controller",
         Mbac_telemetry.Trace.Str (Mbac.Controller.name controller));
        ("capacity", Mbac_telemetry.Trace.Float cfg.capacity) ];
  (let obs0 = Link.observation s.link in
   Mbac.Controller.observe controller obs0;
   match cfg.arrival with
   | `Infinite -> try_admit s obs0
   | `Poisson _ ->
       Calendar_queue.push s.queue
         ~time:(Mbac_stats.Sample.exponential s.rng ~mean:s.arrival_mean)
         tag_arrive);
  s

let[@inline] now s = Link.now s.link
let[@inline] load s = Link.sum_rate s.link
let[@inline] flows s = Link.n s.link
let[@inline] events_processed s = Link.events s.link
let[@inline] has_pending s = not (Calendar_queue.is_empty s.queue)
let measurement s = Link.measurement s.link

(* Pop and process the earliest event.  Reading the minimum in place
   (rather than through [pop]'s option/pair) keeps the loop
   allocation-free. *)
let[@inline] step s =
  let te = Calendar_queue.min_time s.queue in
  let payload = Calendar_queue.min_payload s.queue in
  Calendar_queue.drop_min s.queue;
  fire s ~te payload

(* Deep copy.  Everything mutable is duplicated; [cfg] and [make_source]
   are immutable/stateless and shared.  Every source in the clone is
   re-bound to the clone's [rng] — the same single stream that
   [admit_one] hands to future sources — so a clone's randomness is
   fully determined by the [rng] passed here. *)
let clone s ~rng =
  { s with
    rng;
    controller = Mbac.Controller.copy s.controller;
    queue = Calendar_queue.copy s.queue;
    link = Link.copy s.link;
    sources =
      Array.map
        (function
          | None -> None
          | Some src -> Some (Mbac_traffic.Source.copy src rng))
        s.sources;
    gens = Array.copy s.gens;
    buffer = Option.map Fluid_buffer.copy s.buffer;
    utility_stats = Mbac_stats.Welford.Weighted.copy s.utility_stats;
    flow_count_stats = Mbac_stats.Welford.Weighted.copy s.flow_count_stats;
    cursor = { s.cursor with c_time = s.cursor.c_time } }

type snapshot = state

let snapshot s = clone s ~rng:(Mbac_stats.Rng.copy s.rng)

let restore ?rng snap =
  let rng =
    match rng with
    | Some r -> r
    | None -> Mbac_stats.Rng.copy snap.rng
  in
  clone snap ~rng

let run rng cfg ~controller ~make_source =
  let s = start rng cfg ~controller ~make_source in
  let l = s.link in
  let stopped = ref None in
  let running = ref true in
  (* Batched dispatch: one [drain_min] pass processes every event
     sharing the minimum timestamp without re-entering the queue's
     minimum search.  The callback is the body of [step] — [drain_min]
     invokes it while the event is still the queue minimum, so the
     event's own time is a cached in-place read.  Timestamp collisions
     are measure-zero under the exponential clocks, so batches are
     singletons in practice and the stop checks below fire with exactly
     the per-event cadence the stepping API gives; allocated once, not
     per event. *)
  let dispatch payload =
    fire s ~te:(Calendar_queue.min_time s.queue) payload
  in
  (* Events processed since the last stop check.  A [mod] test on the
     running total would skip a check whenever a same-timestamp
     [drain_min] batch jumps the counter across the boundary without
     landing on it — the check then waits for the total to hit an exact
     multiple again, which it may never do. *)
  let since_check = ref 0 in
  while !running do
    if Calendar_queue.is_empty s.queue then
      running := false (* cannot happen while flows exist *)
    else begin
      let before = Link.events l in
      Calendar_queue.drain_min s.queue ~f:dispatch;
      since_check := !since_check + (Link.events l - before);
      if !since_check >= cfg.check_every_events then begin
        since_check := 0;
        match
          Measurement.check_stop ~confidence:cfg.confidence ~rel_ci:cfg.rel_ci
            ~min_batches:cfg.min_batches (Link.measurement l)
            ~target:cfg.target_p_q
        with
        | Measurement.Running -> ()
        | v ->
            stopped := Some v;
            running := false
      end
    end;
    if Link.now l >= cfg.max_time || Link.events l >= cfg.max_events then
      running := false
  done;
  (* Close an overflow episode left open at the end of the run, and fold
     the run's totals into the telemetry shard (exact totals, added once,
     instead of per-event increments on the hot path). *)
  if Link.close_episode l then
    episode_closed s ~t:(Link.now l) ~truncated:true;
  sync_counters s ~upto:(Link.now l);
  Mbac_telemetry.Metrics.inc "sim_runs_total";
  (match s.buffer with
  | Some b ->
      Mbac_telemetry.Metrics.add "sim_buffer_lost_volume"
        (Fluid_buffer.lost_volume b);
      Mbac_telemetry.Metrics.add "sim_buffer_loss_time" (Fluid_buffer.loss_time b)
  | None -> ());
  let meas = Link.measurement l in
  let p_f, estimate_kind, converged, ci_rel =
    match !stopped with
    | Some (Measurement.Converged { p_f; ci_rel }) -> (p_f, `Direct, true, ci_rel)
    | Some (Measurement.Below_target { p_f_fit; _ }) ->
        (p_f_fit, `Gaussian_fit, true, nan)
    | Some Measurement.Running | None ->
        let est, kind = Measurement.final_estimate meas ~target:cfg.target_p_q in
        let ci =
          Measurement.relative_half_width meas ~confidence:cfg.confidence
        in
        (est, kind, false, ci)
  in
  let mean_load = Measurement.load_mean meas in
  let admitted = Link.reserved l and reneg_attempts = Link.updates l in
  let result =
  { p_f; estimate_kind; converged; ci_rel;
    mean_flows = Mbac_stats.Welford.Weighted.mean s.flow_count_stats;
    mean_load;
    std_load = Measurement.load_std meas;
    utilization = mean_load /. cfg.capacity;
    mean_utility = Mbac_stats.Welford.Weighted.mean s.utility_stats;
    admitted;
    departed = Link.released l;
    blocked = s.blocked;
    blocking_probability =
      (match cfg.arrival with
      | `Infinite -> nan
      | `Poisson _ ->
          let offered = s.blocked + admitted in
          if offered = 0 then nan
          else float_of_int s.blocked /. float_of_int offered);
    reneg_attempts;
    reneg_failures = s.reneg_failures;
    reneg_failure_probability =
      (if reneg_attempts = 0 then nan
       else float_of_int s.reneg_failures /. float_of_int reneg_attempts);
    buffer_loss_fraction =
      (match s.buffer with
      | Some b -> Fluid_buffer.loss_time_fraction b
      | None -> nan);
    p_f_point = Measurement.point_fraction meas;
    sim_time = Link.now l;
    events = Link.events l }
  in
  Mbac_telemetry.Metrics.set_gauge "sim_last_p_f" result.p_f;
  Mbac_telemetry.Metrics.set_gauge "sim_last_utilization" result.utilization;
  Mbac_telemetry.Trace.emit ~t:(Link.now l) ~kind:"run_end"
    [ ("controller", Mbac_telemetry.Trace.Str (Mbac.Controller.name controller));
      ("p_f", Mbac_telemetry.Trace.Float result.p_f);
      ("utilization", Mbac_telemetry.Trace.Float result.utilization);
      ("overflow_episodes", Mbac_telemetry.Trace.Int (Link.episodes l));
      ("overflow_time", Mbac_telemetry.Trace.Float (Link.overflow_time l));
      ("admitted", Mbac_telemetry.Trace.Int admitted);
      ("events", Mbac_telemetry.Trace.Int (Link.events l)) ];
  (* Close the partial window left open at run end (it carries the
     run-total counters folded above and the headline gauges). *)
  if
    Mbac_telemetry.Timeseries.enabled ()
    && Link.now l > s.next_window -. Mbac_telemetry.Timeseries.interval ()
  then begin
    Mbac_telemetry.Metrics.Handle.set_gauge g_window_flows
      (float_of_int (Link.n l));
    Mbac_telemetry.Metrics.Handle.set_gauge g_window_load (Link.sum_rate l);
    Mbac_telemetry.Timeseries.emit_window ~t:(Link.now l)
  end;
  result

let pp_result fmt r =
  Format.fprintf fmt
    "p_f=%.4g (%s%s, ci_rel=%.2g) util=%.3f mean_flows=%.1f load=%.2f±%.2f \
     adm=%d dep=%d t=%.3g ev=%d"
    r.p_f
    (match r.estimate_kind with `Direct -> "direct" | `Gaussian_fit -> "fit")
    (if r.converged then "" else ",capped")
    r.ci_rel r.utilization r.mean_flows r.mean_load r.std_load r.admitted
    r.departed r.sim_time r.events;
  if not (Float.is_nan r.blocking_probability) then
    Format.fprintf fmt " blocking=%.4g" r.blocking_probability;
  if not (Float.is_nan r.reneg_failure_probability) && r.reneg_failures > 0
  then Format.fprintf fmt " reneg_fail=%.4g" r.reneg_failure_probability;
  if not (Float.is_nan r.buffer_loss_fraction) then
    Format.fprintf fmt " buffer_loss=%.4g" r.buffer_loss_fraction
