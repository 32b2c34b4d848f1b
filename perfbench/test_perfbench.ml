(* Toy-sized runs of each workload's output check: the real output
   passes, a corrupted one fails. *)

open Perfbench
module H = Harness
module CL = Mbac_sim.Continuous_load

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let flip s i = String.mapi (fun j c -> if j = i then (if c = '0' then '1' else '0') else c) s

(* sim_link: a result matches its reference; a corrupted digest or event
   count does not; the stored table matches the program for seed 1. *)
let sim_link () =
  let controller = Mbac.Controller.robust Sim_link.params in
  let r = Sim_link.run ~seed:1 ~events:20_000 controller in
  expect "sim_link toy run processes exactly its horizon" (r.CL.events = 20_000);
  let good = [ (1, (r.CL.events, Sim_link.digest r)) ] in
  expect "sim_link toy result matches its reference"
    (Sim_link.check_reference good ~seed:1 r = Ok ());
  let bad_digest = [ (1, (r.CL.events, flip (Sim_link.digest r) 0)) ] in
  expect "sim_link corrupted digest fails"
    (Sim_link.check_reference bad_digest ~seed:1 r = Error `Mismatch);
  let bad_events = [ (1, (r.CL.events + 1, Sim_link.digest r)) ] in
  expect "sim_link corrupted event count fails"
    (Sim_link.check_reference bad_events ~seed:1 r = Error `Mismatch);
  expect "sim_link seed outside the table is reported as such"
    (Sim_link.check_reference good ~seed:2 r = Error `Not_stored);
  let stored = Sim_link.load_reference "reference.json" in
  let warm = Sim_link.run ~seed:1 ~events:Sim_link.reference_events controller in
  expect "stored reference.json matches the program for seed 1"
    (Sim_link.check_reference stored ~seed:1 warm = Ok ());
  let reparsed =
    let path = Filename.temp_file "perfbench" ".json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc (Sim_link.reference_json good));
    let t = Sim_link.load_reference path in
    Sys.remove path;
    t
  in
  expect "reference table round-trips through Json/Json_parse" (reparsed = good)

(* The replayed controller gives back a recorded run's decisions: its
   run renders identically to the real controller's, and a corrupted
   tape does not. *)
let replay () =
  let events = 20_000 in
  let controller = Mbac.Controller.robust Sim_link.params in
  let real = Sim_link.render (Sim_link.run ~seed:2 ~events controller) in
  let tape = Sim_link.tape () in
  let recorded =
    Sim_link.render (Sim_link.run ~seed:2 ~events (Sim_link.recording_controller tape controller))
  in
  expect "recording controller does not change the run" (recorded = real);
  let name = Mbac.Controller.name controller in
  let replayed () = Sim_link.render (Sim_link.run ~seed:2 ~events (Sim_link.replay_controller ~name tape)) in
  expect "replayed run renders as the real run" (replayed () = real);
  (* from half-way on, nothing more is admissible *)
  Array.fill tape.Sim_link.answers (tape.Sim_link.len / 2) (tape.Sim_link.len / 2) 0;
  expect "replayed run from a corrupted tape differs" (replayed () <> real)

(* net_star: the 2-shard render equals the 1-shard render; a corrupted
   render does not. *)
let net_star () =
  let events = 20_000 in
  let r = Net_star.run ~seed:5 ~shards:2 ~jobs:2 ~events () in
  let text = Net_star.render r in
  expect "net_star toy 2-shard run matches the 1-shard run"
    (Net_star.check_against_serial ~seed:5 ~events text);
  expect "net_star corrupted render fails"
    (not (Net_star.check_against_serial ~seed:5 ~events (flip text (String.length text / 2))))

(* serve_sock: the closed loop's counts equal Loadgen's over the
   in-process transport, again after a reset on a used engine, and over
   a real Unix socket; corrupted counts fail. *)
let serve_sock () =
  let decides = 2_000 in
  let reference = Serve_sock.reference ~seed:3 ~decides in
  let client = Mbac_serve.Client.inproc (Serve_sock.engine ()) in
  let l1 = Serve_sock.closed_loop client ~seed:3 ~decides in
  expect "serve_sock toy loop matches Loadgen" (Serve_sock.matches reference l1);
  Serve_sock.reset client ~accounting:l1.Serve_sock.accounting;
  let l2 = Serve_sock.closed_loop client ~seed:3 ~decides in
  expect "serve_sock loop after reset matches Loadgen" (Serve_sock.matches reference l2);
  Mbac_serve.Client.close client;
  let admitted, rejected = reference in
  expect "serve_sock corrupted admitted count fails"
    (not (Serve_sock.matches (admitted + 1, rejected) l1));
  expect "serve_sock corrupted rejected count fails"
    (not (Serve_sock.matches (admitted, rejected - 1) l1));
  let path = "perfbench-test.sock" in
  let server =
    Thread.create (fun () -> Mbac_serve.Server.run_unix (Serve_sock.engine ()) ~path) ()
  in
  let c = Mbac_serve.Client.connect_unix ~path () in
  let l3 = Serve_sock.closed_loop c ~seed:3 ~decides in
  expect "serve_sock loop over a Unix socket matches Loadgen" (Serve_sock.matches reference l3);
  ignore (Mbac_serve.Client.rpc c Mbac_serve.Protocol.Shutdown);
  Mbac_serve.Client.close c;
  Thread.join server

(* The result line parses back with the keys the contract names. *)
let result_line () =
  let c = H.checks () in
  H.check c ~what:"ok" true;
  H.check c ~what:"corrupt" false;
  let line = H.result_json c [ H.metric "setup_s" "s" 0.8127 ] in
  let open Mbac_telemetry.Json_parse in
  match parse line with
  | Error e -> expect ("result line parses: " ^ e) false
  | Ok j ->
      expect "result line counts attempted and failed"
        (Option.bind (member "attempted" j) to_int = Some 2
        && Option.bind (member "failed" j) to_int = Some 1
        && Option.bind (member "correct" j) to_bool = Some false);
      expect "result line carries value and unit"
        (Option.bind (member "metrics" j) (member "setup_s")
         |> Fun.flip Option.bind (member "unit")
         |> Fun.flip Option.bind to_string
        = Some "s")

let order_statistics () =
  expect "median interpolates" (H.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  expect "percentile is nearest rank"
    (H.percentile (Array.init 100 (fun i -> float_of_int (i + 1))) 0.99 = 99.0)

let () =
  sim_link ();
  replay ();
  net_star ();
  serve_sock ();
  result_line ();
  order_statistics ();
  if !failures > 0 then exit 1
