(* The telemetry layer: histogram bucket edges, snapshot merge algebra,
   sharded-counter determinism under the parallel engine. *)

open Mbac_telemetry
open Test_util

(* ---------- Histogram bucket edges ---------- *)

let test_bucket_edges () =
  (* 4 buckets of width 0.25 over [0, 1). *)
  let h = Metric.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  let idx = Metric.Histogram.bucket_index h in
  Alcotest.(check int) "below lo -> underflow" (-1) (idx (-0.001));
  Alcotest.(check int) "x = lo -> bucket 0" 0 (idx 0.0);
  Alcotest.(check int) "interior -> its bucket" 1 (idx 0.3);
  Alcotest.(check int) "interior edge -> bucket above" 2 (idx 0.5);
  Alcotest.(check int) "last in-range value" 3 (idx 0.999);
  Alcotest.(check int) "x = hi -> overflow" 4 (idx 1.0);
  Alcotest.(check int) "far above hi -> overflow" 4 (idx 42.0)

let test_observe_counts () =
  let h = Metric.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Metric.Histogram.observe h)
    [ -1.0; 0.0; 3.0; 5.0; 9.999; 10.0; 100.0; nan; infinity ];
  Alcotest.(check int) "underflow" 1 (Metric.Histogram.underflow h);
  (* +inf is non-finite, so it counts toward [count] only, like nan *)
  Alcotest.(check int) "overflow (x = hi and above)" 2
    (Metric.Histogram.overflow h);
  Alcotest.(check (array int)) "bucket counts"
    [| 1; 1; 1; 0; 1 |]
    (Metric.Histogram.counts h);
  (* nan contributes to count but to no bucket and not the sum *)
  Alcotest.(check int) "count includes non-finite" 9
    (Metric.Histogram.count h);
  check_close "sum over finite values" 126.999 (Metric.Histogram.sum h)

let test_histogram_merge_shape_mismatch () =
  let a = Metric.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  let b = Metric.Histogram.create ~lo:0.0 ~hi:2.0 ~bins:4 in
  Alcotest.check_raises "shape mismatch refused"
    (Invalid_argument "Metric.Histogram.merge_into: shape mismatch")
    (fun () -> Metric.Histogram.merge_into ~into:a b)

(* ---------- Snapshot merge algebra ---------- *)

let hist_of observations =
  let h = Metric.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  List.iter (Metric.Histogram.observe h) observations;
  Snapshot.Histogram
    { Snapshot.lo = Metric.Histogram.lo h;
      hi = Metric.Histogram.hi h;
      counts = Metric.Histogram.counts h;
      underflow = Metric.Histogram.underflow h;
      overflow = Metric.Histogram.overflow h;
      sum = Metric.Histogram.sum h;
      count = Metric.Histogram.count h }

let snap_a =
  Snapshot.of_list
    [ ("c", Snapshot.Counter 3); ("s", Snapshot.Sum 1.5);
      ("g", Snapshot.Gauge 10.0); ("h", hist_of [ 0.1; 0.6 ]) ]

let snap_b =
  Snapshot.of_list
    [ ("c", Snapshot.Counter 4); ("s", Snapshot.Sum 0.25);
      ("g", Snapshot.Gauge 20.0); ("h", hist_of [ 0.6; 2.0 ]);
      ("only_b", Snapshot.Counter 1) ]

let snap_c =
  Snapshot.of_list
    [ ("c", Snapshot.Counter 5); ("g", Snapshot.Gauge 30.0);
      ("h", hist_of [ -1.0 ]) ]

let test_merge_values () =
  let m = Snapshot.merge snap_a snap_b in
  Alcotest.(check bool) "counter adds" true
    (Snapshot.find m "c" = Some (Snapshot.Counter 7));
  Alcotest.(check bool) "sum adds" true
    (Snapshot.find m "s" = Some (Snapshot.Sum 1.75));
  Alcotest.(check bool) "gauge takes right operand" true
    (Snapshot.find m "g" = Some (Snapshot.Gauge 20.0));
  Alcotest.(check bool) "union keeps singletons" true
    (Snapshot.find m "only_b" = Some (Snapshot.Counter 1));
  match Snapshot.find m "h" with
  | Some (Snapshot.Histogram h) ->
      Alcotest.(check (array int)) "histogram buckets add"
        [| 1; 0; 2; 0 |] h.Snapshot.counts;
      Alcotest.(check int) "histogram overflow adds" 1 h.Snapshot.overflow;
      Alcotest.(check int) "histogram count adds" 4 h.Snapshot.count
  | _ -> Alcotest.fail "merged histogram missing"

let test_merge_associative () =
  let left = Snapshot.merge (Snapshot.merge snap_a snap_b) snap_c in
  let right = Snapshot.merge snap_a (Snapshot.merge snap_b snap_c) in
  Alcotest.(check bool) "(a+b)+c = a+(b+c), all kinds" true
    (Snapshot.equal left right)

let test_merge_commutative_except_gauge () =
  (* Counters, sums, and histograms commute; gauges deliberately do not
     (right operand wins), so compare with the gauge dropped. *)
  let drop_gauge s =
    Snapshot.of_list
      (List.filter
         (fun (_, v) -> match v with Snapshot.Gauge _ -> false | _ -> true)
         (Snapshot.bindings s))
  in
  let ab = Snapshot.merge snap_a snap_b and ba = Snapshot.merge snap_b snap_a in
  Alcotest.(check bool) "a+b = b+a modulo gauges" true
    (Snapshot.equal (drop_gauge ab) (drop_gauge ba));
  Alcotest.(check bool) "gauge is order-sensitive" true
    (Snapshot.find ab "g" <> Snapshot.find ba "g")

let test_merge_empty_identity () =
  Alcotest.(check bool) "empty is a left identity" true
    (Snapshot.equal snap_b (Snapshot.merge Snapshot.empty snap_b));
  Alcotest.(check bool) "empty is a right identity" true
    (Snapshot.equal snap_b (Snapshot.merge snap_b Snapshot.empty))

let test_json_deterministic () =
  let j = Snapshot.to_json snap_a in
  Alcotest.(check string) "rendering is stable" j (Snapshot.to_json snap_a);
  (* names appear in sorted order *)
  let pos name =
    match String.index_opt j '{' with
    | None -> -1
    | Some _ ->
        let needle = "\"" ^ name ^ "\"" in
        let rec find i =
          if i + String.length needle > String.length j then -1
          else if String.sub j i (String.length needle) = needle then i
          else find (i + 1)
        in
        find 0
  in
  Alcotest.(check bool) "keys sorted by name" true
    (pos "c" < pos "g" && pos "g" < pos "h" && pos "h" < pos "s")

(* ---------- Sharded counters under the parallel engine ---------- *)

let counter_value snapshot name =
  match Snapshot.find snapshot name with
  | Some (Snapshot.Counter n) -> n
  | _ -> 0

let test_sharded_counters_qcheck =
  (* Whatever the per-task increments and the pool width, the merged
     counter equals the serial total. *)
  qcheck ~count:30 "merged sharded counters = serial total"
    QCheck.(pair (list_of_size Gen.(1 -- 20) (0 -- 50)) (1 -- 6))
    (fun (increments, jobs) ->
      Shard.reset_current ();
      ignore
        (Mbac_sim.Parallel.run_tasks ~jobs
           (List.map
              (fun by () -> Metrics.inc ~by "qcheck_sharded_total")
              increments));
      let merged = counter_value (Snapshot.current ()) "qcheck_sharded_total" in
      Shard.reset_current ();
      merged = List.fold_left ( + ) 0 increments)

let test_jobs_invariant_snapshot () =
  (* Full-snapshot determinism: metrics recorded by parallel tasks
     (counters, sums, gauges, histograms) aggregate identically for any
     pool width, including the gauge's submission-order winner. *)
  let run jobs =
    Shard.reset_current ();
    ignore
      (Mbac_sim.Parallel.run_tasks ~jobs
         (List.init 12 (fun i () ->
              Metrics.inc ~by:(i + 1) "snap_counter";
              Metrics.add "snap_sum" (0.5 *. float_of_int i);
              Metrics.set_gauge "snap_gauge" (float_of_int i);
              Metrics.observe "snap_hist" ~lo:0.0 ~hi:12.0 ~bins:6
                (float_of_int i))));
    let s = Snapshot.current () in
    Shard.reset_current ();
    s
  in
  let reference = run 1 in
  Alcotest.(check bool) "gauge winner is the last submitted task" true
    (Snapshot.find reference "snap_gauge" = Some (Snapshot.Gauge 11.0));
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d snapshot equals jobs=1" jobs)
        true
        (Snapshot.equal reference (run jobs));
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d JSON byte-identical" jobs)
        (Snapshot.to_json reference)
        (Snapshot.to_json (run jobs)))
    [ 2; 4 ]

(* BENCH.json is read back through Json_parse and rewritten with
   Json_parse.to_json; the committed file must survive that byte for
   byte, or every bench run would rewrite sections it did not measure. *)
let test_bench_json_round_trip () =
  let text = In_channel.with_open_bin "../BENCH.json" In_channel.input_all in
  let body = String.trim text in
  match Mbac_telemetry.Json_parse.parse body with
  | Error e -> Alcotest.fail ("BENCH.json does not parse: " ^ e)
  | Ok v ->
      Alcotest.(check string) "BENCH.json round-trips" body
        (Mbac_telemetry.Json_parse.to_json v)

let suite =
  [ ( "telemetry",
      [ test "histogram bucket edges" test_bucket_edges;
        test "histogram observe counts" test_observe_counts;
        test "histogram shape mismatch" test_histogram_merge_shape_mismatch;
        test "snapshot merge values" test_merge_values;
        test "snapshot merge associative" test_merge_associative;
        test "snapshot merge commutative" test_merge_commutative_except_gauge;
        test "snapshot merge identity" test_merge_empty_identity;
        test "snapshot JSON deterministic" test_json_deterministic;
        test_sharded_counters_qcheck;
        test "jobs-invariant snapshot" test_jobs_invariant_snapshot;
        test "BENCH.json round-trips" test_bench_json_round_trip ] ) ]
