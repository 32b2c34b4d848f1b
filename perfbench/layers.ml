(* Isolated per-layer rows: one public function of one module, called
   in a loop at the shapes sim_link and net_star drive it with.  Each
   row is the median of five timed loops, in ns (or us) per call. *)

module H = Harness

(* Cross-sections near sim_link's operating point (~95 flows, mean
   rate 1, sigma 0.3), pre-drawn so the loops time only the layer. *)
let observations ~seed =
  let rng = Mbac_stats.Rng.derive ~seed ~tag:"perfbench/layers" in
  Array.init 1024 (fun i ->
      let n = 90 + Mbac_stats.Rng.int rng 12 in
      let mu = Mbac_stats.Sample.gaussian rng ~mu:1.0 ~sigma:0.02 in
      let var = 0.09 *. float_of_int n in
      let sum_rate = mu *. float_of_int n in
      Mbac.Observation.make ~now:(0.01 *. float_of_int i) ~n ~sum_rate
        ~sum_sq:(var +. (sum_rate *. sum_rate /. float_of_int n)))

(* Brown's hold model at sim_link's population: pop the minimum, push a
   replacement at t + Exp(mean = pending), ~100 pending. *)
let calendar_hold_ns ~seed =
  let pending = 100 in
  let rng = Mbac_stats.Rng.derive ~seed ~tag:"perfbench/hold" in
  let incs =
    Float.Array.init 4096 (fun _ ->
        Mbac_stats.Sample.exponential rng ~mean:(float_of_int pending))
  in
  let q = Mbac_sim.Calendar_queue.create () in
  for i = 0 to pending - 1 do
    Mbac_sim.Calendar_queue.push q ~time:(Float.Array.get incs i) i
  done;
  H.iso ~n:1_000_000 (fun i ->
      let t = Mbac_sim.Calendar_queue.min_time q in
      let p = Mbac_sim.Calendar_queue.min_payload q in
      Mbac_sim.Calendar_queue.drop_min q;
      Mbac_sim.Calendar_queue.push q ~time:(t +. Float.Array.get incs (i land 4095)) p)

let estimator_observe_ns ~seed =
  let obs = observations ~seed in
  let t_m = Mbac.Window.recommended_t_m Sim_link.params in
  let est = Mbac.Estimator.ewma ~t_m in
  let base = ref 0.0 in
  H.iso ~n:1_000_000 (fun i ->
      let o = obs.(i land 1023) in
      if i land 1023 = 0 then base := !base +. 20.0;
      Mbac.Estimator.observe est
        { o with Mbac.Observation.now = !base +. o.Mbac.Observation.now })

let criterion_admissible_ns ~seed =
  let obs = observations ~seed in
  let alpha = Mbac.Params.alpha_q Sim_link.params in
  H.iso ~n:1_000_000 (fun i ->
      let o = obs.(i land 1023) in
      ignore
        (Sys.opaque_identity
           (Mbac.Criterion.admissible ~capacity:Sim_link.capacity
              ~mu:(Mbac.Observation.cross_mean o)
              ~sigma:(sqrt (Mbac.Observation.cross_variance o)) ~alpha)))

let measurement_record_ns ~seed =
  let rng = Mbac_stats.Rng.derive ~seed ~tag:"perfbench/record" in
  let loads = Float.Array.init 4096 (fun _ -> Mbac_stats.Sample.gaussian rng ~mu:92.0 ~sigma:3.0) in
  let m =
    Mbac_sim.Measurement.create ~sample_spacing:200.0 ~capacity:Sim_link.capacity ~warmup:0.0
      ~batch_length:200.0 ()
  in
  H.iso ~n:1_000_000 (fun i ->
      (* one record per event: ~0.01 time units apart at ~100 events/unit *)
      let t0 = 0.01 *. float_of_int i in
      Mbac_sim.Measurement.record m ~t0 ~t1:(t0 +. 0.01) ~load:(Float.Array.get loads (i land 4095)))

let handle_inc_ns () =
  let h = Mbac_telemetry.Metrics.Handle.counter "perfbench_probe_total" in
  H.iso ~n:2_000_000 (fun _ -> Mbac_telemetry.Metrics.Handle.inc h)

let adjusted_alpha_ce_us () =
  let t_m = Mbac.Window.recommended_t_m Sim_link.params in
  H.iso ~n:200 (fun _ ->
      ignore (Sys.opaque_identity (Mbac.Inversion.adjusted_alpha_ce ~t_m Sim_link.params)))
  /. 1e3

(* One message sent shard 0 -> 1 and delivered, in batches of 256 (a
   window's worth at net_star's message rate). *)
let exchange_send_deliver_ns () =
  let x = Mbac_net.Exchange.create ~shards:2 in
  let batch = 256 in
  H.iso ~n:4_000 (fun w ->
      let base = float_of_int w in
      for k = 0 to batch - 1 do
        Mbac_net.Exchange.send x ~src:0 ~dst:1
          ~time:(base +. (float_of_int k /. 1024.0))
          ~kind:0 ~link:1 ~hop:1 ~route:(k land 31) ~seq:((w * batch) + k) ~islot:k ~igen:0
          ~rate:1.0 ~t_end:(base +. 10.0)
      done;
      ignore (Sys.opaque_identity (Mbac_net.Exchange.deliver x ~dst:1)))
  /. float_of_int batch

(* Pool round trip for two empty tasks at net_star's width. *)
let parallel_run_tasks_us () =
  H.iso ~n:50 (fun _ ->
      ignore (Mbac_sim.Parallel.run_tasks ~jobs:2 ~count_tasks:false [ (fun () -> 0); (fun () -> 1) ]))
  /. 1e3

(* Eight equal CPU-bound cells (RNG draws, allocation-free) at jobs 1
   vs jobs 2: the pool's scaling on this machine. *)
let parallel_map_speedup_2 ~seed =
  let cell k =
    let rng = Mbac_stats.Rng.derive ~seed ~tag:(Printf.sprintf "perfbench/cell-%d" k) in
    let s = ref 0.0 in
    for _ = 1 to 1_500_000 do
      s := !s +. Mbac_stats.Rng.float rng
    done;
    !s
  in
  let cells = List.init 8 Fun.id in
  let time jobs =
    H.median
      (List.init 3 (fun _ ->
           let t0 = H.now_ns () in
           ignore (Mbac_sim.Parallel.map ~jobs cell cells);
           H.now_ns () -. t0))
  in
  let t1 = time 1 in
  t1 /. time 2

let metrics ~seed =
  let row name unit_ f = H.span ("layers." ^ name) (fun () -> H.metric name unit_ (f ())) in
  [ row "calendar_queue.hold_ns" "ns" (fun () -> calendar_hold_ns ~seed);
    row "estimator.observe_ns" "ns" (fun () -> estimator_observe_ns ~seed);
    row "criterion.admissible_ns" "ns" (fun () -> criterion_admissible_ns ~seed);
    row "measurement.record_ns" "ns" (fun () -> measurement_record_ns ~seed);
    row "metrics.handle_inc_ns" "ns" handle_inc_ns;
    row "inversion.adjusted_alpha_ce_us" "us" adjusted_alpha_ce_us;
    row "exchange.send_deliver_ns" "ns" exchange_send_deliver_ns;
    row "parallel.run_tasks_us" "us" parallel_run_tasks_us;
    row "parallel.map_speedup_2" "ratio" (fun () -> parallel_map_speedup_2 ~seed) ]
