(* Plumbing shared by the three workloads: clocks, order statistics,
   peak RSS, output checks, in-memory spans, and the result line. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* The start of the benchmark process as this module sees it: the
   runtime and the repository's libraries have initialised, nothing of
   the benchmark has run.  A workload's first set-up is timed from
   here. *)
let process_start_ns = now_ns ()

(* ---------- order statistics ---------- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* A run's value from its in-run repeats: the 10th percentile of a
   rate, the 90th of a time.  The host's speed wanders between a
   contended floor and up to ~1.8x faster, in stretches of seconds to
   minutes (CPU time equals wall time throughout: it is not steal, it
   is how fast the core runs).  How much of a run falls in the fast
   stretches varies widely, so the median of a run's repeats follows
   it (IQR/median over five 30 s runs: 25-41% on sim_link at a busy
   hour); the floor moves far less (8-16%).  A low quantile rather
   than the minimum, so one stolen time slice cannot decide it. *)
let rate_of_repeats xs = quantile xs 0.1
let time_of_repeats xs = quantile xs 0.9

(* Percentile of a latency sample: nearest rank, so the value is one
   that was actually observed. *)
let percentile (a : float array) q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* p50 and p99 of a run's latency samples, one array per repeat.  The
   p50 is each repeat's median, combined with [time_of_repeats]: pooled,
   it would follow the run's share of fast stretches.  The p99 is taken
   over every sample of the run pooled: the slowest 1% come from the
   contended state whatever the share, and pooling gives it ~1e5
   samples beyond it, where the 99th percentile of each repeat spreads
   from one repeat to the next. *)
let latency_of_repeats samples =
  ( time_of_repeats (List.map (fun a -> percentile a 0.50) samples),
    percentile (Array.concat samples) 0.99 )

(* ---------- /proc readers ---------- *)

let status_field ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.starts_with ~prefix line then
              Some
                (String.trim
                   (String.sub line (String.length prefix)
                      (String.length line - String.length prefix)))
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* VmHWM (peak resident set) of [pid] in MiB; [nan] when unreadable. *)
let peak_rss_mb ~pid =
  match status_field ~pid "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> (
          match float_of_string_opt kb with
          | Some kb -> kb /. 1024.0
          | None -> nan)
      | [] -> nan)
  | None -> nan

(* CPUs this process may run on, from Cpus_allowed_list ("0-1,4"). *)
let allowed_cpus () =
  match status_field ~pid:"self" "Cpus_allowed_list" with
  | None -> [ 0 ]
  | Some v ->
      List.concat_map
        (fun part ->
          match String.split_on_char '-' part with
          | [ a ] -> [ int_of_string a ]
          | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1)
                          (fun i -> int_of_string a + i)
          | _ -> [])
        (String.split_on_char ',' v)

(* ---------- output checks ---------- *)

(* Every workload operation (a timed repeat, an RPC loop, a reference
   comparison) is one attempted operation; a failed output check or an
   RPC error makes it a failed one. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let checks () = { attempted = 0; failed = 0; failures = [] }

let check c ~what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    c.failures <- what :: c.failures
  end

(* Run [f] as one attempted operation; an exception is a failure. *)
let guarded c ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      check c ~what:(what ^ ": " ^ Printexc.to_string e) false;
      None

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* ---------- spans ---------- *)

(* Coarse spans (one per phase, repeat or isolated row) are kept in
   memory and written as JSON when the run ends.  Per-call timings
   inside the simulators are far too many to keep one by one; those are
   folded into [acc] accumulators at the call site instead. *)
type span = { id : int; parent : int; sname : string; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_span = ref 0
let current_span = ref (-1)

let span name f =
  let id = !next_span in
  incr next_span;
  let parent = !current_span in
  current_span := id;
  let t0 = now_ns () in
  let finish () =
    spans := { id; parent; sname = name; t0; t1 = now_ns () } :: !spans;
    current_span := parent
  in
  Fun.protect ~finally:finish f

(* Where a run leaves its daemon sockets and span files. *)
let run_dir = ".perfbench"

let ensure_run_dir () = if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755

let spans_json () =
  let open Mbac_telemetry.Json in
  arr
    (List.rev_map
       (fun s ->
         obj
           [ ("id", int s.id); ("parent", int s.parent);
             ("name", string s.sname); ("start_ns", float s.t0);
             ("end_ns", float s.t1) ])
       !spans)

(* Per-call timing of one layer, sampled: every call is counted, one
   call in [sample_every] is timed.  A clock read costs ~40 ns on the
   VM this was built on — as much as the calls being timed — so timing
   every call would double the run and swamp the layers.  A timed call
   reads the clock three times: [e0] and [t0] back to back, then [t1]
   after the call.  [t1 - t0] is the call plus the clock's own
   overhead; [t0 - e0] is that overhead alone, measured in the same
   state (the clock code as cold or warm as for the call), and is taken
   off: a clock cost measured in a hot loop is lower than in place.
   Even so a span is the call's latency, with nothing overlapping it,
   which for 20-50 ns calls is 2-3x what they add to an untimed loop
   (see Sim_link.traced).  [start] returns 0 for an untimed call.  No
   closure is allocated. *)
type acc = {
  mask : int;
  mutable calls : int;
  mutable sampled : int;
  mutable ns : float;
  mutable empty : float;
}

let sample_every = 8
let acc () = { mask = sample_every - 1; calls = 0; sampled = 0; ns = 0.0; empty = 0.0 }

let[@inline] start a =
  a.calls <- a.calls + 1;
  if a.calls land a.mask = 0 then begin
    let e0 = now_ns () in
    let t0 = now_ns () in
    a.empty <- a.empty +. (t0 -. e0);
    t0
  end
  else 0.0

let[@inline] stop a t0 =
  if t0 > 0.0 then begin
    a.sampled <- a.sampled + 1;
    a.ns <- a.ns +. (now_ns () -. t0)
  end

let merge (a : acc) (b : acc) =
  { a with
    calls = a.calls + b.calls;
    sampled = a.sampled + b.sampled;
    ns = a.ns +. b.ns;
    empty = a.empty +. b.empty }

(* Run each thunk [rounds] times, rotating the order every round so
   each variant sees the same stretch of machine time on average: the
   host's speed drifts by up to ~25% between minutes, which
   back-to-back blocks would book as a difference between variants.
   Returns each variant's results in order. *)
let interleave ~rounds fs =
  let n = List.length fs in
  let fs = Array.of_list fs in
  let out = Array.make n [] in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      out.(i) <- fs.(i) () :: out.(i)
    done
  done;
  Array.to_list (Array.map List.rev out)

(* Cost of one [now_ns] call, measured back to back. *)
let clock_ns () =
  let n = 200_000 in
  median
    (List.init 5 (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to n do
           ignore (Sys.opaque_identity (now_ns ()))
         done;
         (now_ns () -. t0) /. float_of_int n))

(* Mean cost of one call: the sampled intervals less the empty ones. *)
let per_call a =
  if a.sampled = 0 then 0.0 else Float.max 0.0 ((a.ns -. a.empty) /. float_of_int a.sampled)

(* Total time in the layer, estimated from the sample. *)
let total a = per_call a *. float_of_int a.calls

(* Time the sampling itself cost: three clock reads per timed call. *)
let clock_cost ~clock a = 3.0 *. clock *. float_of_int a.sampled

(* ---------- isolated rows ---------- *)

(* Mean cost of [f i] over [n] calls in a loop, median of five loops. *)
let iso ~n f =
  median
    (List.init 5 (fun _ ->
         let t0 = now_ns () in
         for i = 0 to n - 1 do
           f i
         done;
         (now_ns () -. t0) /. float_of_int n))

(* ---------- in-run repeats ---------- *)

(* Run [f rep] until [seconds] have elapsed and at least [min_reps]
   repeats are done, stopping early rather than overrunning by a whole
   repeat.  Each repeat is a fixed amount of work, so its value is
   comparable across repeats and runs; the caller reports medians. *)
let repeat ~seconds ~min_reps f =
  let start = now_ns () in
  let budget = seconds *. 1e9 in
  let rec go acc k =
    let elapsed = now_ns () -. start in
    let mean = if k = 0 then 0.0 else elapsed /. float_of_int k in
    if k >= min_reps && elapsed +. mean > budget then List.rev acc
    else go (f k :: acc) (k + 1)
  in
  go [] 0

(* ---------- result line ---------- *)

let print_repeats name xs =
  Printf.printf "  %s over %d repeats: %s\n" name (List.length xs)
    (String.concat " " (List.map (Printf.sprintf "%.4g") xs))

let print_table oc metrics =
  List.iter
    (fun m -> Printf.fprintf oc "  %-44s %16.6g %s\n" m.name m.value m.unit_)
    metrics

let result_json c metrics =
  let open Mbac_telemetry.Json in
  obj
    [ ("correct", bool (c.failed = 0)); ("attempted", int c.attempted);
      ("failed", int c.failed);
      ( "metrics",
        obj
          (List.map
             (fun m -> (m.name, obj [ ("value", float m.value); ("unit", string m.unit_) ]))
             metrics) ) ]
