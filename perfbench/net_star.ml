(* net_star: Network.run on an 8-leaf star (28 two-hop routes), two
   shards on two domains.  The only workload that exercises Exchange,
   the window barrier and Parallel.run_tasks: ~0.28 cross-shard
   messages per event. *)

module N = Mbac_net.Network
module H = Harness

let capacity = 100.0

(* offered load 0.9 per link: 0.09 flows/s x T_h 1000 x mu 1 = 90 *)
let topology = Mbac_net.Topology.star ~leaves:8 ~capacity ~rate:0.09
let shards = 2
let jobs = 2

let config ~shards ~events =
  { (N.default_config ~topology ~holding_time_mean:1000.0 ~target_p_q:1e-3)
    with
    N.shards;
    max_events = events }

let repeat_events = 750_000
let setup_events = 200_000

(* One robust controller per link: all links have capacity 100, so the
   paper's parameters apply to each. *)
let robust_controller ~link:_ ~capacity:_ = Mbac.Controller.robust Sim_link.params

let run ?(make_controller = robust_controller)
    ?(make_source = Sim_link.make_source) ~seed ~shards ~jobs ~events () =
  N.run ~jobs ~seed (config ~shards ~events) ~make_controller ~make_source

let render r = Format.asprintf "%a" N.pp_result r

(* The determinism contract: the rendered summary of a sharded run is
   byte-identical to a one-shard run of the same seed and horizon. *)
let check_against_serial ~seed ~events sharded_render =
  let serial = run ~seed ~shards:1 ~jobs:1 ~events () in
  String.equal (render serial) sharded_render

(* ---------- end-to-end ---------- *)

(* One set-up: a short run of the whole network, which builds every
   link's controller (eqn (38) inversion) and starts the pool's
   domains.  Set-ups are placed as in Sim_link.e2e. *)
let setup ~seed ~t0 =
  let r = run ~seed ~shards ~jobs ~events:setup_events () in
  ((H.now_ns () -. t0) /. 1e9, render r)

let e2e ~seed ~seconds c =
  let setups =
    List.init Sim_link.setup_reps (fun i ->
        setup ~seed ~t0:(if i = 0 then H.process_start_ns else H.now_ns ()))
  in
  let setup_render = snd (List.hd setups) in
  let check_setup r = H.check c ~what:"net_star set-up runs differ" (r = setup_render) in
  List.iter (fun (_, r) -> check_setup r) setups;
  let first = ref None in
  let rss = ref nan in
  let probe = Sim_link.probe_controller ~seed in
  let reps =
    H.repeat ~seconds ~min_reps:Sim_link.min_reps (fun k ->
        let d0 = Sim_link.decisions () in
        let t0 = H.now_ns () in
        let r = run ~seed ~shards ~jobs ~events:repeat_events () in
        let dt = (H.now_ns () -. t0) /. 1e9 in
        let dd = Sim_link.decisions () - d0 in
        Option.iter (fun v -> rss := v) (Sim_link.rss_after_min_reps k);
        let text = render r in
        (match !first with
        | None -> first := Some (text, r.N.events)
        | Some (t, _) ->
            H.check c ~what:"net_star repeat differs from the first" (t = text));
        let probe = Sim_link.probe_samples ~seed probe in
        let setup_s, setup_render = setup ~seed ~t0:(H.now_ns ()) in
        check_setup setup_render;
        { Sim_link.eps = float_of_int r.N.events /. dt; dps = float_of_int dd /. dt; probe;
          setup = setup_s })
  in
  (match !first with
  | Some (text, events) ->
      H.check c ~what:"net_star differs from the 1-shard run"
        (check_against_serial ~seed ~events text)
  | None -> ());
  Sim_link.e2e_metrics ~setups:(List.map fst setups) reps ~peak_rss_mb:!rss

(* ---------- traced ---------- *)

(* Span accumulators live in domain-local storage: each domain running
   shards times its own calls without sharing a cache line with the
   other.  Every traced run bumps [generation], so each domain starts
   fresh accumulators for it, tagged with the run's [jobs]. *)
type dacc = {
  gen : int;
  dom : int;
  jobs : int;
  observe : H.acc;
  admissible : H.acc;
  fire : H.acc;
}

let generation = Atomic.make 0
let traced_jobs = Atomic.make 0
let registry : dacc list ref = ref []
let registry_lock = Mutex.create ()

let fresh_dacc () =
  let d =
    { gen = Atomic.get generation; dom = (Domain.self () :> int);
      jobs = Atomic.get traced_jobs; observe = H.acc (); admissible = H.acc ();
      fire = H.acc () }
  in
  Mutex.protect registry_lock (fun () -> registry := d :: !registry);
  d

let key = Domain.DLS.new_key fresh_dacc

let local () =
  let d = Domain.DLS.get key in
  if d.gen = Atomic.get generation then d
  else begin
    let d = fresh_dacc () in
    Domain.DLS.set key d;
    d
  end

let traced_controller ~link ~capacity =
  Sim_link.timed_controller
    ~observe:(fun () -> (local ()).observe)
    ~admissible:(fun () -> (local ()).admissible)
    (robust_controller ~link ~capacity)

let traced_source = Sim_link.timed_source (fun () -> (local ()).fire) Sim_link.make_source

(* One tape per link: a link's controller is only called from the
   domain running its shard. *)
let recording_controllers tapes ~link ~capacity =
  let t = Sim_link.tape () in
  Hashtbl.replace tapes link t;
  Sim_link.recording_controller t (robust_controller ~link ~capacity)

let replay_controllers ~name tapes ~link ~capacity:_ =
  Sim_link.replay_controller ~name (Hashtbl.find tapes link)

(* The decomposition, as in Sim_link.traced: the controllers' isolated
   rows times their calls per event plus the replayed run (decisions
   replayed, untimed) must give the untraced ns/event.  That holds for
   work, which adds up on one domain, so the check is made on the two
   shards run by one job (network.sharded_serial_events_per_s).  The
   two-job wall is that work divided by the two-job speedup, which no
   layer row can apportion: the two domains wait for each other at
   every window barrier, and the replayed two-job run shows how much of
   the controllers' time is on its critical path (reported, not
   checked).  Untraced, replayed and traced runs at one and at two jobs
   are interleaved. *)
let traced_rounds = 15
let traced_events = 250_000

let traced ~seed ~clock ~iso c =
  Mutex.protect registry_lock (fun () -> registry := []);
  let events = traced_events in
  let r_plain = run ~seed ~shards ~jobs ~events () in
  let same what r =
    H.check c ~what:("net_star " ^ what ^ " run differs from untraced") (render r = render r_plain)
  in
  let tapes = Hashtbl.create 16 in
  same "recording" (run ~make_controller:(recording_controllers tapes) ~seed ~shards ~jobs ~events ());
  let name = Mbac.Controller.name (robust_controller ~link:0 ~capacity) in
  let timed_events = Hashtbl.create 2 in
  let timed_run what ?(shards = shards) ~jobs ?make_controller ?make_source () =
    H.span what (fun () ->
        let t0 = H.now_ns () in
        let r = run ?make_controller ?make_source ~seed ~shards ~jobs ~events () in
        let dt = H.now_ns () -. t0 in
        same what r;
        dt /. float_of_int r.N.events)
  in
  let traced_run what ~jobs =
    Atomic.set traced_jobs jobs;
    Atomic.incr generation;
    let ns =
      timed_run what ~jobs ~make_controller:traced_controller ~make_source:traced_source ()
    in
    (* [same] has checked the run's render, event count included *)
    Hashtbl.replace timed_events jobs
      (r_plain.N.events + Option.value ~default:0 (Hashtbl.find_opt timed_events jobs));
    ns
  in
  let variants jobs =
    let tag = Printf.sprintf "net_star.jobs%d." jobs in
    [ (fun () -> timed_run (tag ^ "untraced") ~jobs ());
      (fun () ->
        timed_run (tag ^ "replayed") ~jobs ~make_controller:(replay_controllers ~name tapes) ());
      (fun () -> traced_run (tag ^ "traced") ~jobs) ]
  in
  let results = Array.of_list (H.interleave ~rounds:traced_rounds (variants jobs @ variants 1)) in
  let med k = H.median results.(k) in
  let untraced2 = med 0 and replayed2 = med 1 and traced2 = med 2 in
  let untraced1 = med 3 and replayed1 = med 4 and traced1 = med 5 in
  let serial =
    H.median (List.init 2 (fun _ -> 1e9 /. timed_run "net_star.serial" ~shards:1 ~jobs:1 ()))
  in
  (* d0 is the submitting domain, d1 the pool workers (a fresh domain
     per Network.run), pooled *)
  let main_dom = (Domain.self () :> int) in
  let merge ds =
    let sum f = List.fold_left (fun p d -> H.merge p (f d)) (H.acc ()) ds in
    (sum (fun d -> d.observe), sum (fun d -> d.admissible), sum (fun d -> d.fire))
  in
  let at jobs = List.filter (fun d -> d.jobs = jobs) !registry in
  let d0 = merge (List.filter (fun d -> d.dom = main_dom) (at jobs)) in
  let d1 = merge (List.filter (fun d -> d.dom <> main_dom) (at jobs)) in
  let all2 = merge (at jobs) and all1 = merge (at 1) in
  let evf jobs = float_of_int (Hashtbl.find timed_events jobs) in
  let controller_spans ~jobs (o, a, _) =
    (H.total o +. H.total a -. (2.0 *. iso "metrics.handle_inc_ns" *. float_of_int a.H.calls))
    /. evf jobs
  in
  let fire ~jobs (_, _, f) = H.total f /. evf jobs in
  (* share of the two-job traced wall outside the spans and their clock
     reads, per domain *)
  let unattributed (o, a, f) =
    let wall = traced2 *. evf jobs in
    let busy =
      List.fold_left (fun s x -> s +. H.total x +. H.clock_cost ~clock x) 0.0 [ o; a; f ]
    in
    (wall -. busy) /. wall
  in
  let controller_iso =
    let o, a, _ = all1 in
    Sim_link.isolated_controller_ns ~iso
      ~observes:(float_of_int o.H.calls /. evf 1)
      ~decisions:(float_of_int a.H.calls /. evf 1)
  in
  let rebuilt = controller_iso +. replayed1 in
  let residual = (rebuilt -. untraced1) /. untraced1 in
  let table =
    [ ("1 job: controllers, isolated rows x calls/event", controller_iso);
      ("1 job: + replayed run (decisions replayed, untimed)", replayed1);
      ("1 job: = rebuilt", rebuilt);
      ("1 job: untraced (1e9/sharded_serial_events_per_s)", untraced1);
      ("(1 job: controllers by ablation, untraced - replayed)", untraced1 -. replayed1);
      ("(1 job: controller spans, observe + admissible - counters)", controller_spans ~jobs:1 all1);
      ("(1 job: source.fire, sampled span)", fire ~jobs:1 all1);
      ("(1 job: traced wall)", traced1);
      ("(2 jobs: untraced = 1 job untraced / speedup over it)", untraced2);
      ("(2 jobs: speedup over 1 job)", untraced1 /. untraced2);
      ("(2 jobs: controllers by ablation, untraced - replayed)", untraced2 -. replayed2);
      ("(2 jobs: d0 controller spans, per event of the run)", controller_spans ~jobs d0);
      ("(2 jobs: d1 controller spans, per event of the run)", controller_spans ~jobs d1);
      ("(2 jobs: d0 source.fire)", fire ~jobs d0);
      ("(2 jobs: d1 source.fire)", fire ~jobs d1);
      ("(2 jobs: traced wall)", traced2) ]
  in
  let ev = float_of_int r_plain.N.events in
  let o, a, f = all2 in
  let metrics =
    [ H.metric "network.windows" "count" (float_of_int r_plain.N.windows);
      H.metric "network.messages" "count" (float_of_int r_plain.N.messages);
      H.metric "network.messages_per_event" "ratio" (float_of_int r_plain.N.messages /. ev);
      H.metric "network.serial_events_per_s" "1/s" serial;
      H.metric "network.sharded_serial_events_per_s" "1/s" (1e9 /. untraced1);
      H.metric "network.speedup_2" "ratio" (1e9 /. untraced2 /. serial);
      H.metric "network.controller.observe_ns" "ns" (H.per_call o);
      H.metric "network.controller.admissible_ns" "ns" (H.per_call a);
      H.metric "network.source.fire_ns" "ns" (H.per_call f);
      H.metric "network.d0.unattributed_share" "ratio" (unattributed d0);
      H.metric "network.d1.unattributed_share" "ratio" (unattributed d1);
      H.metric "net_star.trace_overhead_share" "ratio" ((traced2 /. untraced2) -. 1.0);
      H.metric "net_star.residual_share" "ratio" (Float.abs residual) ]
  in
  { Sim_link.metrics; table; residual }
