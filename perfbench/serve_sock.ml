(* serve_sock: an mbac_serve daemon on a Unix socket, driven by a
   closed loop of one connection with one request outstanding.  The
   request mix is Loadgen's (Decide, Log_decision, Add on admit,
   Subtract at departure): codec + session + kernel round trip +
   Engine.  The simulators are bypassed entirely. *)

module H = Harness
module P = Mbac_serve.Protocol
module Client = Mbac_serve.Client
module Rng = Mbac_stats.Rng
module Sample = Mbac_stats.Sample

let capacity = 100.0
let criteria = "ce:0.01,hoeffding:0.01:2.0"
let estimator = "ewma:100"
let measure_every = 16

let workload ~seed ~requests =
  { Mbac_serve.Loadgen.seed; requests; arrival_mean = 1.0; hold_mean = 100.0;
    load_mean = 1.0; load_std = 0.3; n_criteria = 2 }

let engine ?(measure_every = measure_every) () =
  Mbac_serve.Engine.create
    { capacity;
      criteria = Mbac_serve.Spec.criteria_of_string criteria;
      estimator = Mbac_serve.Spec.estimator_of_string estimator;
      measure_every }

(* Decides per timed repeat (~1 s pinned here) and in the set-up warm-up. *)
let repeat_decides = 10_000
let warmup_decides = 8_000

(* ---------- the closed loop ---------- *)

type loop = {
  decides : int;
  admitted : int;
  rejected : int;
  requests : int;
  accounting : int;  (* Add + Subtract requests, drives measure_every *)
  elapsed_s : float;
  decide_us : float array;  (* per-Decide round trip *)
  rpc_mean_ns : float;  (* mean round trip of every request kind, when [time_all] *)
}

exception Rpc_error of string

let expect what = function
  | P.Error_reply { code; message } ->
      raise (Rpc_error (Printf.sprintf "%s: server error %d (%s)" what code message))
  | _ -> raise (Rpc_error ("unexpected reply to " ^ what))

(* Loadgen.run's request sequence, draw for draw (same derived streams,
   same order), with the Decide round trip timed.  Departures wait in a
   calendar queue keyed on virtual time, payload = index into [loads].
   [time_all] also times every other request: the traced variant. *)
let closed_loop ?(time_all = false) client ~seed ~decides =
  let w = workload ~seed ~requests:decides in
  let arrivals = Rng.derive ~seed ~tag:"loadgen/arrivals" in
  let holds = Rng.derive ~seed ~tag:"loadgen/holds" in
  let loads_rng = Rng.derive ~seed ~tag:"loadgen/loads" in
  let picks = Rng.derive ~seed ~tag:"loadgen/criteria" in
  let q = Mbac_sim.Calendar_queue.create () in
  let loads = Float.Array.create decides in
  let decide_us = Array.make decides 0.0 in
  let rpc_ns = ref 0.0 in
  let requests = ref 0 and accounting = ref 0 in
  let admitted = ref 0 and rejected = ref 0 in
  let send req =
    incr requests;
    if time_all then begin
      let t0 = H.now_ns () in
      let r = Client.rpc client req in
      rpc_ns := !rpc_ns +. (H.now_ns () -. t0);
      r
    end
    else Client.rpc client req
  in
  let t = ref 0.0 in
  let start = H.now_ns () in
  for i = 0 to decides - 1 do
    t := !t +. Sample.exponential arrivals ~mean:w.arrival_mean;
    while
      (not (Mbac_sim.Calendar_queue.is_empty q))
      && Mbac_sim.Calendar_queue.min_time q <= !t
    do
      let due = Mbac_sim.Calendar_queue.min_time q in
      let load = Float.Array.get loads (Mbac_sim.Calendar_queue.min_payload q) in
      Mbac_sim.Calendar_queue.drop_min q;
      incr accounting;
      match send (P.Subtract { load; now = due }) with
      | P.Ok_reply -> ()
      | r -> expect "Subtract" r
    done;
    let load = Sample.lognormal_of_moments loads_rng ~mean:w.load_mean ~std:w.load_std in
    let criterion = Rng.int picks w.n_criteria in
    let t0 = H.now_ns () in
    let reply = send (P.Decide { criterion; load; now = !t }) in
    decide_us.(i) <- (H.now_ns () -. t0) /. 1e3;
    let admit = match reply with P.Decision { admit; _ } -> admit | r -> expect "Decide" r in
    (match send (P.Log_decision { criterion; admit }) with
    | P.Ok_reply -> ()
    | r -> expect "Log_decision" r);
    if admit then begin
      incr admitted;
      incr accounting;
      (match send (P.Add { load; now = !t }) with
      | P.Ok_reply -> ()
      | r -> expect "Add" r);
      Float.Array.set loads i load;
      Mbac_sim.Calendar_queue.push q
        ~time:(!t +. Sample.exponential holds ~mean:w.hold_mean)
        i
    end
    else incr rejected
  done;
  (match send P.Stats with P.Stats_reply _ -> () | r -> expect "Stats" r);
  { decides; admitted = !admitted; rejected = !rejected; requests = !requests;
    accounting = !accounting; elapsed_s = (H.now_ns () -. start) /. 1e9;
    decide_us; rpc_mean_ns = !rpc_ns /. float_of_int !requests }

(* Bring an engine that has served earlier loops back to a fresh
   engine's state: pad the accounting count to a multiple of
   [measure_every] (so inline measurements fall on the same calls as in
   a fresh engine), then Initialize, which zeroes the counters and
   resets the estimator. *)
let reset client ~accounting =
  let pad = (measure_every - (accounting mod measure_every)) mod measure_every in
  for _ = 1 to pad do
    match Client.rpc client (P.Add { load = 0.0; now = 0.0 }) with
    | P.Ok_reply -> ()
    | r -> expect "Add" r
  done;
  match Client.rpc client (P.Initialize { capacity }) with
  | P.Ok_reply -> ()
  | r -> expect "Initialize" r

(* The output check: admitted/rejected counts of a loop equal
   Loadgen.run over Client.inproc on a fresh engine, same seed. *)
let reference ~seed ~decides =
  let client = Client.inproc (engine ()) in
  let s = Mbac_serve.Loadgen.run client (workload ~seed ~requests:decides) in
  Client.close client;
  (s.Mbac_serve.Loadgen.admitted, s.Mbac_serve.Loadgen.rejected)

let matches (admitted, rejected) l = l.admitted = admitted && l.rejected = rejected

(* ---------- the daemon ---------- *)

type daemon = { pid : int; path : string; client : Client.t }

(* Pin the calling process (all its threads) to the CPU list [cpus]
("1", "0-1"); children inherit the mask. *)
let pin_self cpus =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process "taskset"
      [| "taskset"; "-a"; "-p"; "-c"; cpus; string_of_int (Unix.getpid ()) |]
      Unix.stdin null Unix.stderr
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "taskset -p failed"

(* Daemons started and not yet reaped; killed at exit if the benchmark
   fails before shutting them down. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Start the daemon pinned to [cpu] and wait for its socket by trying
   to connect every half millisecond (Client.connect_unix's own retry
   sleeps 100 ms, which would dominate set-up time). *)
let spawn ~exe ~cpu =
  H.ensure_run_dir ();
  let path = Printf.sprintf "%s/serve-%d.sock" H.run_dir (Unix.getpid ()) in
  let argv =
    [| "taskset"; "-c"; string_of_int cpu; exe; "--socket"; path;
       "--capacity"; Printf.sprintf "%g" capacity; "--criteria"; criteria;
       "--estimator"; estimator; "--measure-every"; string_of_int measure_every |]
  in
  let pid = Unix.create_process "taskset" argv Unix.stdin Unix.stderr Unix.stderr in
  live := pid :: !live;
  let deadline = H.now_ns () +. 20e9 in
  let rec connect () =
    match Client.connect_unix ~retries:0 ~path () with
    | client -> client
    | exception (Failure _ | Unix.Unix_error _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith "daemon exited during start-up");
        if H.now_ns () > deadline then failwith "daemon did not open its socket";
        Unix.sleepf 0.0005;
        connect ()
  in
  { pid; path; client = connect () }

(* Ask the daemon to shut down and reap it; returns its peak RSS. *)
let stop d =
  let rss = H.peak_rss_mb ~pid:(string_of_int d.pid) in
  (try ignore (Client.rpc d.client P.Shutdown) with Failure _ | Unix.Unix_error _ -> ());
  Client.close d.client;
  let deadline = H.now_ns () +. 10e9 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when H.now_ns () < deadline ->
        Unix.sleepf 0.001;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (( <> ) d.pid) !live;
  rss

(* The CPU both processes share when pinned: the highest allowed one
   (CPU 0 usually takes more interrupts). *)
let pinned_cpu () = List.fold_left max 0 (H.allowed_cpus ())

(* ---------- end-to-end ---------- *)

(* Set-ups before the timed phase (the first timed from process
   start) and one after every timed repeat, as on the simulators
   (Sim_link.e2e): seven set-ups in front alone fell within one stretch
   of machine speed, and their median spread 41% from run to run.  A
   set-up restarts the daemon, so every daemon of the timed phase
   serves one warm-up loop and one timed loop: the fixed amount of work
   after which its peak RSS is read. *)
let setup_reps = 3

let e2e ~exe ~seed ~seconds c =
  let cpu = pinned_cpu () in
  pin_self (string_of_int cpu);
  let daemon = ref None in
  let accounting = ref 0 in
  let warm = ref [] in
  (* stop the current daemon, start a fresh one and warm it up *)
  let setup t0 =
    Option.iter (fun d -> ignore (stop d)) !daemon;
    daemon := None;
    let d = spawn ~exe ~cpu in
    daemon := Some d;
    (match H.guarded c ~what:"serve_sock warm-up" (fun () ->
               closed_loop d.client ~seed ~decides:warmup_decides) with
    | Some l ->
        warm := l :: !warm;
        accounting := l.accounting
    | None -> ());
    (H.now_ns () -. t0) /. 1e9
  in
  let setups =
    List.init setup_reps (fun i -> setup (if i = 0 then H.process_start_ns else H.now_ns ()))
  in
  let rss = ref [] in
  let reps =
    H.repeat ~seconds ~min_reps:10 (fun _ ->
        let d = Option.get !daemon in
        let l =
          H.guarded c ~what:"serve_sock loop" (fun () ->
              reset d.client ~accounting:!accounting;
              closed_loop d.client ~seed ~decides:repeat_decides)
        in
        rss := H.peak_rss_mb ~pid:(string_of_int d.pid) :: !rss;
        (l, setup (H.now_ns ())))
  in
  Option.iter (fun d -> ignore (stop d)) !daemon;
  let setups = setups @ List.map snd reps in
  let reps = List.filter_map fst reps in
  let warm_ref = reference ~seed ~decides:warmup_decides in
  let rep_ref = reference ~seed ~decides:repeat_decides in
  List.iter
    (fun l -> H.check c ~what:"serve_sock warm-up counts differ from Loadgen" (matches warm_ref l))
    !warm;
  List.iter
    (fun l -> H.check c ~what:"serve_sock counts differ from Loadgen" (matches rep_ref l))
    reps;
  if reps = [] then failwith "serve_sock: no loop completed";
  let rate f = H.rate_of_repeats (List.map f reps) in
  let p50, p99 = H.latency_of_repeats (List.map (fun l -> l.decide_us) reps) in
  let rps l = float_of_int l.requests /. l.elapsed_s in
  H.print_repeats "setup_s" setups;
  H.print_repeats "requests_per_s" (List.map rps reps);
  [ H.metric "setup_s" "s" (H.time_of_repeats setups);
    H.metric "events_per_s" "1/s" (rate rps);
    H.metric "requests_per_s" "1/s" (rate rps);
    H.metric "decide_p50_us" "us" p50;
    H.metric "decide_p99_us" "us" p99;
    H.metric "peak_rss_mb" "MiB" (H.median !rss) ]

(* ---------- traced ---------- *)

(* Isolated rows at serve_sock's shapes: the codec, the session layer
   and the engine's three paths. *)
let isolated () =
  let decide = P.Decide { criterion = 1; load = 1.02; now = 1234.5 } in
  let decision = P.Decision { admit = true; admissible = 97; flows = 95 } in
  let buf = Buffer.create 64 in
  P.encode_request buf decide;
  let req = Buffer.to_bytes buf in
  Buffer.clear buf;
  P.encode_response buf decision;
  let resp = Buffer.to_bytes buf in
  let out = Buffer.create 64 in
  let codec_client =
    H.iso ~n:200_000 (fun _ ->
        Buffer.clear out;
        P.encode_request out decide;
        ignore (Sys.opaque_identity (P.decode_response resp ~pos:0 ~avail:(Bytes.length resp))))
  in
  let codec_server =
    H.iso ~n:200_000 (fun _ ->
        ignore (Sys.opaque_identity (P.decode_request req ~pos:0 ~avail:(Bytes.length req)));
        Buffer.clear out;
        P.encode_response out decision)
  in
  let e = engine () in
  (* bring the engine to a steady state: ~100 flows and an estimate *)
  for i = 1 to 100 do
    Mbac_serve.Engine.add e ~load:0.95 ~now:(float_of_int i)
  done;
  let handle_frame =
    H.iso ~n:200_000 (fun _ ->
        Buffer.clear out;
        ignore (Mbac_serve.Server.handle_frame e req ~pos:0 ~avail:(Bytes.length req) out))
  in
  let decide_ns =
    H.iso ~n:500_000 (fun i ->
        ignore (Sys.opaque_identity (Mbac_serve.Engine.decide e ~criterion:(i land 1) ~load:1.0)))
  in
  let measurement_ns =
    H.iso ~n:100_000 (fun i -> Mbac_serve.Engine.run_measurement e ~now:(200.0 +. float_of_int i))
  in
  let e0 = engine ~measure_every:0 () in
  let add_ns =
    H.iso ~n:200_000 (fun i ->
        let now = float_of_int i in
        Mbac_serve.Engine.add e0 ~load:1.0 ~now;
        Mbac_serve.Engine.subtract e0 ~load:1.0 ~now)
    /. 2.0
  in
  (codec_client, codec_server, handle_frame, decide_ns, add_ns, measurement_ns)

let median_decide_ns l = H.percentile l.decide_us 0.5 *. 1e3

let traced ~exe ~seed c =
  let cpus = H.allowed_cpus () in
  let cpu = pinned_cpu () in
  let decides = repeat_decides / 2 in
  let ref_counts = reference ~seed ~decides in
  (* [acct]: Add/Subtract requests since the engine's last reset *)
  let loop_checked ?time_all ~acct client what =
    reset client ~accounting:!acct;
    let l = closed_loop ?time_all client ~seed ~decides in
    acct := l.accounting;
    H.check c ~what:(what ^ " counts differ from Loadgen") (matches ref_counts l);
    l
  in
  (* in-process transport: same frames, no kernel *)
  let inproc =
    H.span "serve_sock.inproc" (fun () ->
        let client = Client.inproc (engine ()) in
        let l = loop_checked ~acct:(ref 0) client "serve_sock inproc" in
        Client.close client;
        l)
  in
  (* unpinned: daemon and client on different CPUs *)
  let unpinned =
    match cpus with
    | a :: _ when a <> cpu ->
        H.span "serve_sock.unpinned" (fun () ->
            pin_self (string_of_int a);
            let d = spawn ~exe ~cpu in
            let l = loop_checked ~acct:(ref 0) d.client "serve_sock unpinned" in
            ignore (stop d);
            Some l)
    | _ -> None
  in
  pin_self (string_of_int cpu);
  let d = spawn ~exe ~cpu in
  let acct = ref 0 in
  (* a discarded warm-up loop, then untraced and traced loops
     interleaved (Harness.interleave) *)
  ignore (loop_checked ~acct d.client "serve_sock warm-up");
  let results =
    H.interleave ~rounds:6
      [ (fun () ->
          H.span "serve_sock.untraced" (fun () ->
              loop_checked ~acct d.client "serve_sock untraced"));
        (fun () ->
          H.span "serve_sock.traced" (fun () ->
              loop_checked ~time_all:true ~acct d.client "serve_sock traced")) ]
  in
  let untraced = List.nth results 0 and traced_l = List.nth results 1 in
  ignore (stop d);
  pin_self (String.concat "," (List.map string_of_int cpus));
  let codec_client, codec_server, handle_frame, decide_ns, add_ns, measurement_ns =
    H.span "serve_sock.isolated" isolated
  in
  let med f ls = H.median (List.map f ls) in
  let unix_ns = med median_decide_ns traced_l and inproc_ns = median_decide_ns inproc in
  let p50_ns = med median_decide_ns untraced in
  let transport_ns = unix_ns -. inproc_ns in
  (* transport (by difference) + the isolated in-process rows must add
     back up to the untraced Decide p50 *)
  let rebuilt = transport_ns +. codec_client +. handle_frame in
  let residual = (rebuilt -. p50_ns) /. p50_ns in
  let rps l = float_of_int l.requests /. l.elapsed_s in
  let table =
    [ ("client codec (encode req + decode resp)", codec_client);
      ("server.handle_frame (decode, engine, encode)", handle_frame);
      ("  of which engine.decide", decide_ns);
      ("  of which server codec", codec_server);
      ("transport (unix rpc - inproc rpc)", transport_ns);
      ("= rebuilt Decide round trip", rebuilt);
      ("client.rpc_inproc (p50)", inproc_ns);
      ("client.rpc_unix traced (p50)", unix_ns);
      ("untraced decide_p50", p50_ns);
      ("(traced: mean round trip over every request kind)", med (fun l -> l.rpc_mean_ns) traced_l) ]
  in
  let metrics =
    [ H.metric "client.rpc_inproc_ns" "ns" inproc_ns;
      H.metric "client.rpc_unix_ns" "ns" unix_ns;
      H.metric "transport.share" "ratio" (transport_ns /. unix_ns);
      H.metric "protocol.codec_ns" "ns" (codec_client +. codec_server);
      H.metric "server.handle_frame_ns" "ns" handle_frame;
      H.metric "engine.decide_ns" "ns" decide_ns;
      H.metric "engine.add_ns" "ns" add_ns;
      H.metric "engine.measurement_ns" "ns" measurement_ns;
      H.metric "serve.admit_ratio" "ratio"
        (float_of_int inproc.admitted /. float_of_int inproc.decides);
      H.metric "serve.unpinned_p50_us" "us"
        (match unpinned with
        | Some l -> H.percentile l.decide_us 0.5
        | None -> p50_ns /. 1e3);
      H.metric "serve_sock.trace_overhead_share" "ratio" ((med rps untraced /. med rps traced_l) -. 1.0);
      H.metric "serve_sock.residual_share" "ratio" (Float.abs residual) ]
  in
  { Sim_link.metrics; table; residual }
