(* sim_link: the paper's §5 operating point on one bufferless link,
   driven by Continuous_load.run on a single domain.  Every event runs
   Source.fire, Controller.observe and Controller.admissible over a
   cache-resident calendar queue (~100 live flows); lib/net, Exchange,
   Parallel and lib/serve are never touched. *)

module CL = Mbac_sim.Continuous_load
module H = Harness

let capacity = 100.0

let params =
  Mbac.Params.make ~n:100.0 ~mu:1.0 ~sigma:0.3 ~t_h:1000.0 ~t_c:1.0 ~p_q:1e-3

let rcbr = Mbac_traffic.Rcbr.default_params ~mu:1.0
let make_source rng ~start = Mbac_traffic.Rcbr.create rng rcbr ~start

(* Infinite arrivals (the default), stopping rule off, fixed horizon:
   every run processes exactly [events] events. *)
let config ~events =
  { (CL.default_config ~capacity ~holding_time_mean:1000.0 ~target_p_q:1e-3)
    with
    CL.max_events = events;
    check_every_events = max_int }

(* Events per timed repeat (~0.15 s here), in each set-up's warm-up
   run, and in the run checked against the stored reference. *)
let repeat_events = 500_000
let setup_events = 200_000
let reference_events = 1_000_000

let rng_of_seed seed = Mbac_stats.Rng.derive ~seed ~tag:"perfbench/sim_link"

let run ?(make_source = make_source) ~seed ~events controller =
  CL.run (rng_of_seed seed) (config ~events) ~controller ~make_source

let render r = Format.asprintf "%a" CL.pp_result r
let digest r = Digest.to_hex (Digest.string (render r))

(* ---------- stored reference ---------- *)

(* perfbench/reference.json maps a seed to the event count and the MD5
   of [pp_result] of the [reference_events] run for that seed. *)
type reference = (int * (int * string)) list

let load_reference path : reference =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let open Mbac_telemetry.Json_parse in
  match parse text with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok json -> (
      let entries = Option.bind (member "sim_link" json) to_obj in
      match entries with
      | None -> failwith (path ^ ": no sim_link object")
      | Some kvs ->
          List.map
            (fun (k, v) ->
              let events = Option.bind (member "events" v) to_int in
              let md5 = Option.bind (member "md5" v) to_string in
              match (int_of_string_opt k, events, md5) with
              | Some seed, Some events, Some md5 -> (seed, (events, md5))
              | _ -> failwith (path ^ ": malformed sim_link entry " ^ k))
            kvs)

let reference_json entries =
  let open Mbac_telemetry.Json in
  obj
    [ ( "sim_link",
        obj
          (List.map
             (fun (seed, (events, md5)) ->
               (string_of_int seed, obj [ ("events", int events); ("md5", string md5) ]))
             entries) ) ]

(* [Ok ()] when the result matches the stored reference for [seed];
   a seed outside the table can only be checked for determinism. *)
let check_reference (reference : reference) ~seed r =
  match List.assoc_opt seed reference with
  | None -> Error `Not_stored
  | Some (events, md5) ->
      if r.CL.events = events && digest r = md5 then Ok ()
      else Error `Mismatch

(* ---------- the decision probe ---------- *)

(* decide_p50_us and decide_p99_us on the two simulators are a shared
   microbenchmark of the robust controller, not a figure of the
   workload: a freshly built [Controller.robust] at the paper's
   parameters observes a cross-section and answers admissible, timed in
   batches of 16 (a single call is near the clock's resolution), over
   4096 pre-drawn Gaussian cross-sections.  Batches of 64 (~6 us) were
   hit by an interrupt or a stolen slice about as often as one in a
   hundred, so their p99 followed the host's interrupt rate (IQR/median
   0.27-0.33 over five runs at a busy hour); a batch of 16 is hit four
   times less often.  net_star runs the same probe as sim_link.  One
   probe pass (16000 samples) follows every timed repeat, so the probe
   sees the same machine states as the repeats.  Per-decision
   latencies in microseconds. *)
let probe_samples ~seed controller =
  let rng = Mbac_stats.Rng.derive ~seed ~tag:"perfbench/decide-probe" in
  let obs =
    Array.init 4096 (fun _ ->
        let n = 90 + Mbac_stats.Rng.int rng 12 in
        let rates =
          Array.init n (fun _ ->
              Float.max 0.0 (Mbac_stats.Sample.gaussian rng ~mu:1.0 ~sigma:0.3))
        in
        let sum_rate = Array.fold_left ( +. ) 0.0 rates in
        let sum_sq = Array.fold_left (fun a r -> a +. (r *. r)) 0.0 rates in
        Mbac.Observation.make ~now:0.0 ~n ~sum_rate ~sum_sq)
  in
  let batches = 16_000 and batch = 16 in
  let samples = Array.make batches 0.0 in
  let sink = ref 0 in
  (* virtual time advances ~0.01 per decision, as at ~100 events/unit *)
  let now = ref 0.0 in
  for b = 0 to batches - 1 do
    let base = (b * batch) land 4095 in
    let t0 = H.now_ns () in
    for j = 0 to batch - 1 do
      now := !now +. 0.01;
      let o = { (obs.((base + j) land 4095)) with Mbac.Observation.now = !now } in
      Mbac.Controller.observe controller o;
      sink := !sink + Mbac.Controller.admissible controller o
    done;
    samples.(b) <- (H.now_ns () -. t0) /. float_of_int batch /. 1e3
  done;
  ignore (Sys.opaque_identity !sink);
  samples

(* A fresh robust controller for the probe, warmed by one discarded
   probe pass. *)
let probe_controller ~seed =
  let controller = Mbac.Controller.robust params in
  ignore (probe_samples ~seed controller);
  controller

let counter name =
  match Mbac_telemetry.Snapshot.find (Mbac_telemetry.Snapshot.current ()) name with
  | Some (Mbac_telemetry.Snapshot.Counter n) -> n
  | _ -> 0

let decisions () = counter "mbac_decisions_total"

(* ---------- end-to-end ---------- *)

(* One timed repeat of a simulator workload: events and admission
   decisions per second, the decision probe pass and the set-up that
   follow it. *)
type rep = { eps : float; dps : float; probe : float array; setup : float }

(* Set-ups before the timed phase (the first is timed from process
   start); one more follows every timed repeat, so set-up time samples
   the same stretches of machine speed as the repeats.  Nine set-ups
   before the timed phase alone fell within one such stretch: their
   median spread 24-42% from run to run at a busy hour.  A run reports
   the 90th percentile of its ~60-100 set-ups, like every time it
   reports (Harness.time_of_repeats); over five runs their median
   spread 12-31%, the 90th percentile 8-25%.  The timed phase needs at
   least [min_reps] repeats. *)
let setup_reps = 3
let min_reps = 10

(* Peak RSS of this process once the set-ups and the first [min_reps]
   timed repeats are done: a fixed amount of work, so a run's speed
   does not decide how many runs the figure covers, and growth from
   one run to the next shows in it. *)
let rss_after_min_reps k = if k = min_reps - 1 then Some (H.peak_rss_mb ~pid:"self") else None

let e2e_metrics ~setups reps ~peak_rss_mb =
  let col f = List.map f reps in
  let setups = setups @ col (fun r -> r.setup) in
  H.print_repeats "setup_s" setups;
  H.print_repeats "events_per_s" (col (fun r -> r.eps));
  let p50, p99 = H.latency_of_repeats (col (fun r -> r.probe)) in
  [ H.metric "setup_s" "s" (H.time_of_repeats setups);
    H.metric "events_per_s" "1/s" (H.rate_of_repeats (col (fun r -> r.eps)));
    H.metric "requests_per_s" "1/s" (H.rate_of_repeats (col (fun r -> r.dps)));
    H.metric "decide_p50_us" "us" p50;
    H.metric "decide_p99_us" "us" p99;
    H.metric "peak_rss_mb" "MiB" peak_rss_mb ]

(* One set-up: controller construction (eqn (38) inversion) plus a
   warm-up run. *)
let setup ~seed ~t0 =
  let controller = Mbac.Controller.robust params in
  let r = run ~seed ~events:setup_events controller in
  ((H.now_ns () -. t0) /. 1e9, controller, render r)

let e2e ~reference ~seed ~seconds c =
  let setups =
    List.init setup_reps (fun i ->
        setup ~seed ~t0:(if i = 0 then H.process_start_ns else H.now_ns ()))
  in
  let _, controller, setup_render = List.hd setups in
  let check_setup r = H.check c ~what:"sim_link set-up runs differ" (r = setup_render) in
  List.iter (fun (_, _, r) -> check_setup r) setups;
  let first = ref None in
  let rss = ref nan in
  let probe = probe_controller ~seed in
  let reps =
    H.repeat ~seconds ~min_reps (fun k ->
        let d0 = decisions () in
        let t0 = H.now_ns () in
        let r = run ~seed ~events:repeat_events controller in
        let dt = (H.now_ns () -. t0) /. 1e9 in
        let dd = decisions () - d0 in
        Option.iter (fun v -> rss := v) (rss_after_min_reps k);
        let text = render r in
        (match !first with
        | None ->
            first := Some text;
            H.check c ~what:"sim_link event count" (r.CL.events = repeat_events)
        | Some t ->
            H.check c ~what:"sim_link repeat differs from the first" (t = text));
        let probe = probe_samples ~seed probe in
        let setup_s, _, setup_render = setup ~seed ~t0:(H.now_ns ()) in
        check_setup setup_render;
        { eps = float_of_int r.CL.events /. dt; dps = float_of_int dd /. dt; probe;
          setup = setup_s })
  in
  let checked = run ~seed ~events:reference_events controller in
  (match check_reference reference ~seed checked with
  | Ok () -> H.check c ~what:"sim_link reference" true
  | Error `Mismatch -> H.check c ~what:"sim_link reference mismatch" false
  | Error `Not_stored ->
      (* still checked: the run must repeat exactly *)
      H.check c ~what:"sim_link reference run does not repeat"
        (render (run ~seed ~events:reference_events controller) = render checked));
  e2e_metrics ~setups:(List.map (fun (d, _, _) -> d) setups) reps ~peak_rss_mb:!rss

(* ---------- traced ---------- *)

(* A Controller.make wrapper around the real controller [c] that times
   observe and admissible (sampled, see Harness.acc) into the
   accumulators the getters return.  The wrapper's own admissible is
   instrumented by Controller.make too, so mbac_decisions_total counts
   each decision twice in traced runs. *)
let timed_controller ~observe ~admissible c =
  Mbac.Controller.make ~name:(Mbac.Controller.name c)
    ~observe:(fun o ->
      let a = observe () in
      let t0 = H.start a in
      Mbac.Controller.observe c o;
      H.stop a t0)
    ~admissible:(fun o ->
      let a = admissible () in
      let t0 = H.start a in
      let m = Mbac.Controller.admissible c o in
      H.stop a t0;
      m)
    ~on_admit:(Mbac.Controller.on_admit c)
    ~on_depart:(Mbac.Controller.on_depart c)
    ~reset:(fun () -> Mbac.Controller.reset c)
    ()

(* A Source.create wrapper that fires the real RCBR source (same draws,
   in the same order) and times the fires. *)
let timed_source fire make_source rng ~start =
  let real = make_source rng ~start in
  let module S = Mbac_traffic.Source in
  let step st ~now =
    let a = fire () in
    let t0 = H.start a in
    S.fire real ~now;
    H.stop a t0;
    S.State.set st ~rate:(S.rate real) ~next_change:(S.next_change real)
  in
  let s =
    S.create ~mean:(S.mean real) ~variance:(S.variance real)
      ~rate0:(S.rate real) ~next_change0:(S.next_change real) ~step ()
  in
  S.set_peak_hint s (S.peak_hint real);
  s

(* The answers of a controller's admissible, in call order.  A
   recording wrapper fills a tape from the real controller; a replay
   controller gives the answers back without estimating anything, so a
   run with it processes exactly the same events as with the real
   controller (checked by its render) while the controller's own work
   is gone. *)
type tape = { mutable answers : int array; mutable len : int; mutable pos : int }

let tape () = { answers = Array.make 4096 0; len = 0; pos = 0 }

let record t m =
  if t.len = Array.length t.answers then begin
    let a = Array.make (2 * t.len) 0 in
    Array.blit t.answers 0 a 0 t.len;
    t.answers <- a
  end;
  t.answers.(t.len) <- m;
  t.len <- t.len + 1

let recording_controller t c =
  Mbac.Controller.make ~name:(Mbac.Controller.name c)
    ~observe:(Mbac.Controller.observe c)
    ~admissible:(fun o ->
      let m = Mbac.Controller.admissible c o in
      record t m;
      m)
    ~on_admit:(Mbac.Controller.on_admit c)
    ~on_depart:(Mbac.Controller.on_depart c)
    ~reset:(fun () ->
      t.len <- 0;
      Mbac.Controller.reset c)
    ()

(* Built through Controller.make like every controller, so it keeps the
   decision counters' increments (Controller's instrumentation). *)
let replay_controller ~name t =
  Mbac.Controller.make ~name
    ~observe:(fun _ -> ())
    ~admissible:(fun _ ->
      let m = t.answers.(t.pos) in
      t.pos <- t.pos + 1;
      m)
    ~reset:(fun () -> t.pos <- 0)
    ()

type traced = {
  metrics : H.metric list;
  table : (string * float) list;  (* decomposition rows *)
  residual : float;
}

(* The controller's cost per event from isolated rows: one
   Estimator.observe per observe call, one Criterion.admissible per
   decision (Controller's two counter increments per decision are in
   the replayed run too, so they are not added here). *)
let isolated_controller_ns ~iso ~observes ~decisions =
  (iso "estimator.observe_ns" *. observes) +. (iso "criterion.admissible_ns" *. decisions)

(* The decomposition.  Three variants interleaved (Harness.interleave):
   untraced; traced (sampled spans); replayed (decisions replayed from a
   tape, untimed).  The rebuilt figure adds two parts measured
   independently of the untraced run and of each other: the
   controller's isolated rows times its calls per event, and the
   replayed run's ns/event, which is everything but the controller.  A
   wrong controller figure would not add up.

   The controller's sampled spans are shown beside it, not added: they
   read 2-3x the isolated rows and the ablation (untraced - replayed).
   A timed call is a call whose neighbours cannot overlap with it (the
   clock reads serialise the pipeline), so a span is the call's
   latency, while the untraced run pays only what the call adds to a
   loop that overlaps it with the queue's and the flow table's memory
   accesses.  For calls of 20-50 ns the two differ by 2-3x, so spans of
   such calls do not add up to a wall time on this machine.

   Many short rounds rather than a few long ones: the host's speed
   drifts over seconds, and the finer the interleaving the less of that
   drift lands between the variants. *)
let traced_rounds = 24
let traced_events = 300_000

let traced ~seed ~iso c =
  let controller = Mbac.Controller.robust params in
  let events = traced_events in
  let r_plain = run ~seed ~events controller in
  let same what r =
    H.check c ~what:("sim_link " ^ what ^ " run differs from untraced") (render r = render r_plain)
  in
  let tape = tape () in
  same "recording" (run ~seed ~events (recording_controller tape controller));
  let timed = [| H.acc (); H.acc (); H.acc () |] in
  let timed_run what controller ~make_source =
    H.span what (fun () ->
        let w0 = Gc.minor_words () in
        let t0 = H.now_ns () in
        let r = run ~make_source ~seed ~events controller in
        let dt = H.now_ns () -. t0 in
        same what r;
        let ev = float_of_int r.CL.events in
        (dt /. ev, (Gc.minor_words () -. w0) /. ev))
  in
  let results =
    H.interleave ~rounds:traced_rounds
      [ (fun () -> timed_run "sim_link.untraced" controller ~make_source);
        (fun () ->
          timed_run "sim_link.replayed"
            (replay_controller ~name:(Mbac.Controller.name controller) tape)
            ~make_source);
        (fun () ->
          timed_run "sim_link.traced"
            (timed_controller ~observe:(fun () -> timed.(0))
               ~admissible:(fun () -> timed.(1)) controller)
            ~make_source:(timed_source (fun () -> timed.(2)) make_source)) ]
  in
  let med k = H.median (List.map fst (List.nth results k)) in
  let untraced_ns = med 0 and replayed_ns = med 1 and traced_ns = med 2 in
  let words = H.median (List.map snd (List.nth results 0)) in
  let observe = timed.(0) and admissible = timed.(1) and fire = timed.(2) in
  (* the accumulators hold every traced repeat *)
  let evf = float_of_int (traced_rounds * events) in
  let per_event a = H.total a /. evf in
  let per_ev_calls a = float_of_int a.H.calls /. evf in
  let instrument_ns = 2.0 *. iso "metrics.handle_inc_ns" *. per_ev_calls admissible in
  let controller_iso =
    isolated_controller_ns ~iso ~observes:(per_ev_calls observe)
      ~decisions:(per_ev_calls admissible)
  in
  let rebuilt = controller_iso +. replayed_ns in
  let residual = (rebuilt -. untraced_ns) /. untraced_ns in
  let spans = per_event observe +. per_event admissible -. instrument_ns in
  (* the replayed run: the loop's own time is what the fire span and
     the decision counters leave of it *)
  let self_ns = replayed_ns -. per_event fire -. instrument_ns in
  (* one pop and one push per event with the flow count steady, and one
     Measurement.record per event (record_segment) *)
  let hold = iso "calendar_queue.hold_ns" and record_ns = iso "measurement.record_ns" in
  let table =
    [ ("controller: estimator.observe x observes/event (isolated)",
       iso "estimator.observe_ns" *. per_ev_calls observe);
      ("controller: criterion.admissible x decisions/event (isolated)",
       iso "criterion.admissible_ns" *. per_ev_calls admissible);
      ("+ replayed run (decisions replayed, untimed)", replayed_ns);
      ("= rebuilt", rebuilt);
      ("untraced (1e9/events_per_s)", untraced_ns);
      ("(controller by ablation: untraced - replayed)", untraced_ns -. replayed_ns);
      ("(controller spans: observe + admissible - counters)", spans);
      ("(spans over isolated rows)", spans /. controller_iso);
      ("(the replayed run: source.fire, sampled span)", per_event fire);
      ("(the replayed run: decision counters, isolated)", instrument_ns);
      ("(the replayed run: calendar_queue.hold x 1, isolated)", hold);
      ("(the replayed run: measurement.record x 1, isolated)", record_ns);
      ("(the replayed run: remainder, not isolated)", self_ns -. hold -. record_ns);
      ("(traced wall)", traced_ns) ]
  in
  let metrics =
    [ H.metric "controller.observe_ns" "ns" (H.per_call observe);
      H.metric "controller.admissible_ns" "ns" (H.per_call admissible);
      H.metric "controller.calls_per_event" "count" (per_ev_calls observe +. per_ev_calls admissible);
      H.metric "source.fire_ns" "ns" (H.per_call fire);
      H.metric "source.fires_per_event" "count" (per_ev_calls fire);
      H.metric "continuous_load.self_ns_per_event" "ns" self_ns;
      H.metric "continuous_load.minor_words_per_event" "words" words;
      H.metric "sim_link.trace_overhead_share" "ratio" ((traced_ns /. untraced_ns) -. 1.0);
      H.metric "sim_link.residual_share" "ratio" (Float.abs residual) ]
  in
  { metrics; table; residual }
