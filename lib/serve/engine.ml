type config = {
  capacity : float;
  criteria : (string * Mbac.Policy.t) list;
  estimator : Mbac.Estimator.t;
  measure_every : int;
}

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

(* ---------- fixed-point load encoding ---------- *)

(* 2^20 units per load unit, like sledge's ADMISSIONS_CONTROL_GRANULARITY
   but binary so the quantization is exact in both directions for loads
   that are multiples of 2^-20.  Per-flow loads are rounded once, at the
   boundary; sums of rounded values stay exact integers, so an engine
   whose every admitted flow departs again returns to exactly zero. *)
let fp_scale = 1 lsl 20
let fp_scale_f = float_of_int fp_scale
let fp_of_load x = int_of_float (Float.round (x *. fp_scale_f))
let fp_to_float i = float_of_int i /. fp_scale_f

(* The squared-load accumulator stores round(l^2 * fp_scale) for the
   *rounded* load l, so the measurement cross-section's sum of squares is
   consistent with its sum to within the same quantization. *)
let fp_sq fp =
  let l = fp_to_float fp in
  int_of_float (Float.round (l *. l *. fp_scale_f))

(* ---------- the published estimate record ---------- *)

(* Immutable: swapped whole through one Atomic.  [p_mu] nan = no usable
   estimate yet (bootstrap).  Capacity lives here too, so [initialize]
   retargets the fast path with the same single publication step. *)
type published = {
  p_capacity : float;
  p_capacity_fp : int;
  p_mu : float;
  p_var : float;
  p_updates : int;
}

type background = {
  bg_stop : bool Atomic.t;
  bg_domain : Mbac_telemetry.Shard.t Domain.t;
}

type t = {
  names : string array;
  policies : Mbac.Policy.t array;
  estimator : Mbac.Estimator.t;
  measure_every : int;
  (* fast-path state *)
  flows : int Atomic.t;
  load_fp : int Atomic.t;
  sumsq_fp : int Atomic.t;
  published : published Atomic.t;
  (* counters surfaced through Stats *)
  requests : int Atomic.t;
  decisions : int Atomic.t;
  admits : int Atomic.t;
  accounting : int Atomic.t;  (* add/subtract calls, drives measure_every *)
  log_seq : int Atomic.t;
  (* measurement-path state (everything below the mutex) *)
  meas_mutex : Mutex.t;
  log_mutex : Mutex.t;
  decision_log : Buffer.t option;
  mutable bg : background option;
}

(* ---------- telemetry ---------- *)

module H = Mbac_telemetry.Metrics.Handle

let m_requests = H.counter "serve_requests_total"
let m_decisions = H.counter "serve_decisions_total"
let m_admit = H.counter "serve_admit_total"
let m_reject = H.counter "serve_reject_total"
let m_updates = H.counter "serve_measurement_updates_total"
let m_flows = H.gauge "serve_flows"
let m_load = H.gauge "serve_admitted_load"

(* ---------- construction ---------- *)

let check_capacity capacity =
  if not (Float.is_finite capacity && capacity > 0.0) then
    invalid_arg "Engine: capacity must be finite and positive"

let bootstrap ~capacity ~updates =
  { p_capacity = capacity; p_capacity_fp = fp_of_load capacity; p_mu = nan;
    p_var = nan; p_updates = updates }

let create ?decision_log (config : config) =
  check_capacity config.capacity;
  if config.criteria = [] then invalid_arg "Engine: criteria must be nonempty";
  if List.length config.criteria > 0xFFFF then
    invalid_arg "Engine: at most 65535 criteria (u16 on the wire)";
  if config.measure_every < 0 then
    invalid_arg "Engine: measure_every must be >= 0";
  { names = Array.of_list (List.map fst config.criteria);
    policies = Array.of_list (List.map snd config.criteria);
    estimator = config.estimator;
    measure_every = config.measure_every;
    flows = Atomic.make 0;
    load_fp = Atomic.make 0;
    sumsq_fp = Atomic.make 0;
    published = Atomic.make (bootstrap ~capacity:config.capacity ~updates:0);
    requests = Atomic.make 0;
    decisions = Atomic.make 0;
    admits = Atomic.make 0;
    accounting = Atomic.make 0;
    log_seq = Atomic.make 0;
    meas_mutex = Mutex.create ();
    log_mutex = Mutex.create ();
    decision_log;
    bg = None }

let criterion_names t = Array.copy t.names

(* ---------- measurement path ---------- *)

let run_measurement t ~now =
  Mutex.protect t.meas_mutex (fun () ->
      (* The three counters are read independently, so a concurrent
         accounting call can skew one cross-section by one flow.  That is
         measurement noise of the same order the estimators already
         smooth; correctness (counters, decisions) is unaffected. *)
      let n = Atomic.get t.flows in
      let sum_fp = Atomic.get t.load_fp in
      let sumsq_fp = Atomic.get t.sumsq_fp in
      if n > 0 && sum_fp >= 0 && sumsq_fp >= 0 then
        Mbac.Estimator.observe t.estimator
          (Mbac.Observation.make ~now ~n ~sum_rate:(fp_to_float sum_fp)
             ~sum_sq:(fp_to_float sumsq_fp));
      let prev = Atomic.get t.published in
      let mu, var =
        match Mbac.Estimator.snapshot_estimate t.estimator with
        | Some { Mbac.Estimator.mu; var } -> (mu, var)
        | None -> (nan, nan)
      in
      Atomic.set t.published
        { prev with p_mu = mu; p_var = var; p_updates = prev.p_updates + 1 };
      H.inc m_updates;
      H.set_gauge m_flows (float_of_int n);
      H.set_gauge m_load (fp_to_float sum_fp))

let initialize t ~capacity =
  check_capacity capacity;
  Mutex.protect t.meas_mutex (fun () ->
      Atomic.set t.flows 0;
      Atomic.set t.load_fp 0;
      Atomic.set t.sumsq_fp 0;
      Mbac.Estimator.reset t.estimator;
      let prev = Atomic.get t.published in
      Atomic.set t.published
        (bootstrap ~capacity ~updates:(prev.p_updates + 1));
      H.inc m_updates;
      H.set_gauge m_flows 0.0;
      H.set_gauge m_load 0.0)

(* ---------- fast path ---------- *)

let decide t ~criterion ~load =
  let pub = Atomic.get t.published in
  let n = Atomic.get t.flows in
  let m =
    Mbac.Policy.admissible
      (Array.unsafe_get t.policies criterion)
      ~capacity:pub.p_capacity ~mu:pub.p_mu ~var:pub.p_var ~n
  in
  let headroom =
    Atomic.get t.load_fp + fp_of_load load <= pub.p_capacity_fp
  in
  let admit = n < m && headroom in
  Atomic.incr t.decisions;
  if admit then Atomic.incr t.admits;
  H.inc m_decisions;
  H.inc (if admit then m_admit else m_reject);
  { admit; admissible = m; flows = n }

let maybe_measure t ~now =
  if t.measure_every > 0 then begin
    let k = Atomic.fetch_and_add t.accounting 1 in
    if (k + 1) mod t.measure_every = 0 then run_measurement t ~now
  end

let add t ~load ~now =
  let fp = fp_of_load load in
  ignore (Atomic.fetch_and_add t.flows 1);
  ignore (Atomic.fetch_and_add t.load_fp fp);
  ignore (Atomic.fetch_and_add t.sumsq_fp (fp_sq fp));
  maybe_measure t ~now

let subtract t ~load ~now =
  let fp = fp_of_load load in
  ignore (Atomic.fetch_and_add t.flows (-1));
  ignore (Atomic.fetch_and_add t.load_fp (-fp));
  ignore (Atomic.fetch_and_add t.sumsq_fp (-fp_sq fp));
  maybe_measure t ~now

(* ---------- decision log ---------- *)

let log_decision t ~criterion ~admit =
  let seq = Atomic.fetch_and_add t.log_seq 1 in
  match t.decision_log with
  | None -> ()
  | Some buf ->
      let line =
        Mbac_telemetry.Json.(
          obj
            [ ("seq", int seq);
              ("criterion", string t.names.(criterion));
              ("admit", bool admit);
              ("flows", int (Atomic.get t.flows)) ])
      in
      Mutex.protect t.log_mutex (fun () ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')

(* ---------- stats / dispatch ---------- *)

let stats t =
  let pub = Atomic.get t.published in
  { flows = Atomic.get t.flows;
    admitted_load = fp_to_float (Atomic.get t.load_fp);
    capacity = pub.p_capacity;
    requests = Atomic.get t.requests;
    decisions = Atomic.get t.decisions;
    admits = Atomic.get t.admits;
    updates = pub.p_updates }

(* The upper bound keeps the fixed-point square (load² · fp_scale) well
   inside the 63-bit integer range even after many flows accumulate. *)
let valid_load load = Float.is_finite load && load >= 0.0 && load <= 1e6

let handle t (req : Protocol.request) : Protocol.response =
  Atomic.incr t.requests;
  H.inc m_requests;
  match req with
  | Protocol.Initialize { capacity } ->
      if not (Float.is_finite capacity && capacity > 0.0) then
        Protocol.Error_reply
          { code = 1; message = "capacity must be finite and positive" }
      else begin
        initialize t ~capacity;
        Protocol.Ok_reply
      end
  | Protocol.Decide { criterion; load; now = _ } ->
      if criterion >= Array.length t.names then
        Protocol.Error_reply { code = 2; message = "criterion out of range" }
      else if not (valid_load load) then
        Protocol.Error_reply { code = 3; message = "load out of range" }
      else begin
        let d = decide t ~criterion ~load in
        Protocol.Decision
          { admit = d.admit; admissible = d.admissible; flows = d.flows }
      end
  | Protocol.Add { load; now } ->
      if not (valid_load load) then
        Protocol.Error_reply { code = 3; message = "load out of range" }
      else begin
        add t ~load ~now;
        Protocol.Ok_reply
      end
  | Protocol.Subtract { load; now } ->
      if not (valid_load load) then
        Protocol.Error_reply { code = 3; message = "load out of range" }
      else begin
        subtract t ~load ~now;
        Protocol.Ok_reply
      end
  | Protocol.Log_decision { criterion; admit } ->
      if criterion >= Array.length t.names then
        Protocol.Error_reply { code = 2; message = "criterion out of range" }
      else begin
        log_decision t ~criterion ~admit;
        Protocol.Ok_reply
      end
  | Protocol.Stats ->
      let s = stats t in
      Protocol.Stats_reply
        { flows = s.flows; admitted_load = s.admitted_load;
          capacity = s.capacity; requests = s.requests;
          decisions = s.decisions; admits = s.admits; updates = s.updates }
  | Protocol.Shutdown -> Protocol.Ok_reply

(* ---------- background measurement ---------- *)

let wall_now () = Unix.gettimeofday ()

let start_background t ~interval =
  if t.bg <> None then invalid_arg "Engine: measurement domain already running";
  if not (interval > 0.0) then invalid_arg "Engine: interval must be > 0";
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        (* Record into this domain's own shard and hand it back at join;
           stop_background folds it into the caller's shard, so the
           update counter survives into the final snapshot. *)
        let shard = Mbac_telemetry.Shard.current () in
        while not (Atomic.get stop) do
          Unix.sleepf interval;
          if not (Atomic.get stop) then run_measurement t ~now:(wall_now ())
        done;
        shard)
  in
  t.bg <- Some { bg_stop = stop; bg_domain = d }

let stop_background t =
  match t.bg with
  | None -> ()
  | Some { bg_stop; bg_domain } ->
      Atomic.set bg_stop true;
      let shard = Domain.join bg_domain in
      t.bg <- None;
      Mbac_telemetry.Shard.merge_into_current shard
