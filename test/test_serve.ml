(* The serving engine: fixed-point accounting, bootstrap and published
   estimates, initialize semantics, wire-input validation through
   [handle], decision-log determinism across transports, and a
   multi-domain accounting smoke test. *)

open Test_util
module E = Mbac_serve.Engine
module P = Mbac_serve.Protocol

let config ?(capacity = 100.0) ?(measure_every = 0) () =
  { E.capacity;
    criteria =
      [ ("ce:0.01", Mbac.Policy.gaussian ~p_ce:0.01);
        ("hoeffding:0.01:2.0", Mbac.Policy.hoeffding ~p_ce:0.01 ~peak:2.0) ];
    estimator = Mbac.Estimator.memoryless ();
    measure_every }

(* ---------- fixed-point accounting ---------- *)

let test_accounting_roundtrip () =
  let e = E.create (config ()) in
  (* loads that are not multiples of 2^-20: add then subtract must
     cancel exactly because both paths quantize identically *)
  let loads = [ 0.1; 0.3; 1.7; 2.9999999; 0.123456789 ] in
  List.iter (fun load -> E.add e ~load ~now:0.0) loads;
  let s = E.stats e in
  Alcotest.(check int) "flows" (List.length loads) s.E.flows;
  check_close ~tol:1e-5 "admitted load"
    (List.fold_left ( +. ) 0.0 loads)
    s.E.admitted_load;
  List.iter (fun load -> E.subtract e ~load ~now:1.0) loads;
  let s = E.stats e in
  Alcotest.(check int) "flows back to zero" 0 s.E.flows;
  check_close_abs "load back to exactly zero" 0.0 s.E.admitted_load

(* ---------- bootstrap and published estimates ---------- *)

let test_bootstrap_one_at_a_time () =
  let e = E.create (config ()) in
  (* no measurement yet: M = flows + 1, so each decide sees headroom of
     exactly one flow *)
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "first flow admitted" true d.E.admit;
  Alcotest.(check int) "bootstrap M = n+1" 1 d.E.admissible;
  E.add e ~load:1.0 ~now:0.0;
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "second flow admitted" true d.E.admit;
  Alcotest.(check int) "bootstrap M tracks n" 2 d.E.admissible

let test_bootstrap_capacity_backstop () =
  let e = E.create (config ~capacity:10.0 ()) in
  let d = E.decide e ~criterion:0 ~load:11.0 in
  Alcotest.(check bool) "bootstrap still checks capacity headroom" false
    d.E.admit

let test_published_estimate_drives_decide () =
  let e = E.create (config ~capacity:100.0 ()) in
  for _ = 1 to 50 do
    E.add e ~load:1.0 ~now:0.0
  done;
  E.run_measurement e ~now:0.0;
  (* memoryless estimator over 50 identical unit flows: mu = 1, sigma = 0
     for the Gaussian criterion -> M = floor(capacity / mu) = 100 *)
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "admitted under published estimate" true d.E.admit;
  Alcotest.(check int) "M = capacity / mu for sigma = 0" 100 d.E.admissible;
  Alcotest.(check int) "flows reported" 50 d.E.flows;
  (* the Hoeffding criterion at the same state is strictly tighter *)
  let dh = E.decide e ~criterion:1 ~load:1.0 in
  Alcotest.(check bool) "hoeffding M below gaussian M" true
    (dh.E.admissible < d.E.admissible)

let test_measure_every_cadence () =
  let e = E.create (config ~measure_every:4 ()) in
  for i = 1 to 12 do
    E.add e ~load:1.0 ~now:(float_of_int i)
  done;
  let s = E.stats e in
  Alcotest.(check int) "one pass per 4 accounting calls" 3 s.E.updates

let test_initialize_resets () =
  let e = E.create (config ~capacity:100.0 ()) in
  for _ = 1 to 10 do
    E.add e ~load:1.0 ~now:0.0
  done;
  E.run_measurement e ~now:0.0;
  E.initialize e ~capacity:5.0;
  let s = E.stats e in
  Alcotest.(check int) "flows cleared" 0 s.E.flows;
  check_close_abs "load cleared" 0.0 s.E.admitted_load;
  check_close "capacity retargeted" 5.0 s.E.capacity;
  (* estimator history must be gone too: back to bootstrap one-at-a-time *)
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check int) "back to bootstrap M = n+1" 1 d.E.admissible;
  let d = E.decide e ~criterion:0 ~load:6.0 in
  Alcotest.(check bool) "new capacity enforced" false d.E.admit

(* ---------- wire-input validation ---------- *)

let test_handle_validation () =
  let e = E.create (config ()) in
  let err code = function
    | P.Error_reply { code = c; _ } -> c = code
    | _ -> false
  in
  Alcotest.(check bool) "bad capacity -> code 1" true
    (err 1 (E.handle e (P.Initialize { capacity = nan })));
  Alcotest.(check bool) "criterion out of range -> code 2" true
    (err 2 (E.handle e (P.Decide { criterion = 2; load = 1.0; now = 0.0 })));
  Alcotest.(check bool) "negative load -> code 3" true
    (err 3 (E.handle e (P.Add { load = -1.0; now = 0.0 })));
  Alcotest.(check bool) "infinite load -> code 3" true
    (err 3 (E.handle e (P.Decide { criterion = 0; load = infinity; now = 0.0 })));
  Alcotest.(check bool) "oversized load -> code 3" true
    (err 3 (E.handle e (P.Subtract { load = 1e7; now = 0.0 })));
  match E.handle e P.Stats with
  | P.Stats_reply { requests; _ } ->
      Alcotest.(check int) "every request counted, including rejected" 6
        requests
  | _ -> Alcotest.fail "Stats must answer Stats_reply"

(* ---------- decision-log determinism ---------- *)

let run_loadgen () =
  let log = Buffer.create 1024 in
  let engine = E.create ~decision_log:log (config ~measure_every:16 ()) in
  let client = Mbac_serve.Client.inproc engine in
  let summary =
    Mbac_serve.Loadgen.run client
      { Mbac_serve.Loadgen.seed = 42; requests = 500; arrival_mean = 1.0;
        hold_mean = 50.0; load_mean = 1.0; load_std = 0.3; n_criteria = 2 }
  in
  Mbac_serve.Client.close client;
  (summary, Buffer.contents log)

let test_loadgen_replay_identical () =
  let s1, log1 = run_loadgen () in
  let s2, log2 = run_loadgen () in
  Alcotest.(check string) "decision logs byte-identical" log1 log2;
  Alcotest.(check int) "same admit count" s1.Mbac_serve.Loadgen.admitted
    s2.Mbac_serve.Loadgen.admitted;
  Alcotest.(check int) "one log line per decide" 500
    (List.length
       (String.split_on_char '\n' log1 |> List.filter (fun l -> l <> "")))

(* ---------- serve against the simulators' controllers ---------- *)

(* The engine and a controller of the same policy, fed the same
   cross-sections through identical estimators, must admit the same
   number of flows after every measurement.  Loads sit on a 2^-10 grid,
   so each load and its square are exact in the engine's 2^-20 fixed
   point and both sides see the same sums. *)
type step = Add of int | Remove of int | Measure

let show_step = function
  | Add k -> Printf.sprintf "Add %d" k
  | Remove i -> Printf.sprintf "Remove %d" i
  | Measure -> "Measure"

let differential_case =
  QCheck.make
    ~print:(fun (p_g, (p_h, peak), t_m, steps) ->
      Printf.sprintf "gaussian %h, hoeffding %h peak %h, t_m %g: %s" p_g p_h
        peak t_m
        (String.concat "; " (List.map show_step steps)))
    QCheck.Gen.(
      let p_ce = map (fun e -> 10.0 ** -.e) (float_range 0.302 8.0) in
      quad p_ce
        (pair p_ce (float_range 0.1 8.0))
        (oneofl [ 0.0; 5.0; 50.0 ])
        (list_size (int_range 1 200)
           (frequency
              [ (5, map (fun k -> Add k) (int_range 0 4096));
                (2, map (fun i -> Remove i) nat);
                (3, return Measure) ])))

let test_engine_matches_controllers =
  qcheck ~count:200 "engine admissible == Controller.admissible" differential_case
    (fun (p_g, (p_h, peak), t_m, steps) ->
      let capacity = 100.0 in
      let policies =
        [ ("ce", Mbac.Policy.gaussian ~p_ce:p_g);
          ("hoeffding", Mbac.Policy.hoeffding ~p_ce:p_h ~peak) ]
      in
      let e =
        E.create
          { E.capacity; criteria = policies;
            estimator = Mbac.Estimator.ewma ~t_m; measure_every = 0 }
      in
      let controllers =
        List.map
          (fun (name, policy) ->
            Mbac.Controller.of_policy ~name ~capacity policy
              (Mbac.Estimator.ewma ~t_m))
          policies
      in
      let loads = ref [] and now = ref 0.0 in
      List.for_all
        (function
          | Add k ->
              let load = float_of_int k /. 1024.0 in
              loads := load :: !loads;
              E.add e ~load ~now:!now;
              true
          | Remove i ->
              (match !loads with
              | [] -> ()
              | l ->
                  let j = i mod List.length l in
                  E.subtract e ~load:(List.nth l j) ~now:!now;
                  loads := List.filteri (fun k _ -> k <> j) l);
              true
          | Measure ->
              now := !now +. 1.0;
              E.run_measurement e ~now:!now;
              let n = List.length !loads in
              let obs =
                Mbac.Observation.make ~now:!now ~n
                  ~sum_rate:(List.fold_left ( +. ) 0.0 !loads)
                  ~sum_sq:(List.fold_left (fun a l -> a +. (l *. l)) 0.0 !loads)
              in
              List.for_all2
                (fun criterion c ->
                  (* the engine observes occupied links only *)
                  if n > 0 then Mbac.Controller.observe c obs;
                  (E.decide e ~criterion ~load:0.0).E.admissible
                  = Mbac.Controller.admissible c obs)
                [ 0; 1 ] controllers)
        steps)

(* ---------- criterion specs ---------- *)

let test_spec_rejects () =
  List.iter
    (fun spec ->
      match Mbac_serve.Spec.criteria_of_string spec with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "criteria %S accepted" spec)
    [ ""; "ce"; "ce:0"; "ce:0.6"; "ce:nan"; "ce:-0.1"; "hoeffding:0.01";
      "hoeffding:0.01:0"; "hoeffding:0.01:-1"; "hoeffding:0.7:1";
      "ce:0.01,bogus:1" ];
  Alcotest.(check (list string)) "names are the entries"
    [ "ce:0.5"; "hoeffding:0.01:2" ]
    (List.map fst (Mbac_serve.Spec.criteria_of_string "ce:0.5, hoeffding:0.01:2"))

(* ---------- cross-domain accounting smoke ---------- *)

let test_parallel_accounting () =
  let e = E.create (config ~capacity:1e5 ()) in
  let per_domain = 2_000 in
  let workers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              E.add e ~load:1.5 ~now:(float_of_int i)
            done;
            for i = 1 to per_domain / 2 do
              E.subtract e ~load:1.5 ~now:(float_of_int i)
            done))
  in
  Array.iter Domain.join workers;
  let s = E.stats e in
  Alcotest.(check int) "flow count survives contention" (4 * per_domain / 2)
    s.E.flows;
  check_close ~tol:1e-9 "admitted load survives contention"
    (1.5 *. float_of_int (4 * per_domain / 2))
    s.E.admitted_load

let suite =
  [ ( "serve_engine",
      [ test "add/subtract cancel exactly in fixed point"
          test_accounting_roundtrip;
        test "bootstrap admits one flow at a time" test_bootstrap_one_at_a_time;
        test "bootstrap respects capacity headroom"
          test_bootstrap_capacity_backstop;
        test "published estimate drives decide"
          test_published_estimate_drives_decide;
        test "measure_every cadence" test_measure_every_cadence;
        test "initialize resets counters, estimator, capacity"
          test_initialize_resets;
        test "handle validates wire input as typed replies"
          test_handle_validation;
        test "loadgen replay is byte-identical" test_loadgen_replay_identical;
        test "parallel accounting is lock-free and exact"
          test_parallel_accounting;
        test_engine_matches_controllers;
        test "criteria specs validate their policies" test_spec_rejects ] ) ]
