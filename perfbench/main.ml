(* The benchmark's one command:

     main.exe --workload sim_link|net_star|serve_sock --seed N
              --seconds S --trace 0|1
              [--daemon PATH/mbac_serve.exe] [--reference perfbench/reference.json]

   prints every metric by name with its unit, then, as the last line
   of standard output, one JSON object:
     {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
   and exits 1 when an output check failed.  --trace 0 reports the
   end-to-end metrics of the named workload; --trace 1 runs the traced
   layer sweep and reports every per-layer metric.

     main.exe --write-reference FIRST LAST

   prints the sim_link reference table for seeds FIRST..LAST. *)

open Perfbench
module H = Harness

let workloads = [ "sim_link"; "net_star"; "serve_sock" ]

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable daemon : string;
  mutable reference : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload sim_link|net_star|serve_sock --seed N --seconds S \
     --trace 0|1 [--daemon EXE] [--reference FILE]\n\
    \       main.exe --write-reference FIRST LAST";
  exit 2

let parse argv =
  let a =
    { workload = ""; seed = 1; seconds = 10.0; trace = false;
      daemon = "_build/default/bin/mbac_serve.exe";
      reference = "perfbench/reference.json" }
  in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads -> a.workload <- w; go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        a.seed <- int_of_string n; go rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun s -> s > 0.0) (float_of_string_opt s) ->
        a.seconds <- float_of_string s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a.trace <- t = "1"; go rest
    | "--daemon" :: p :: rest -> a.daemon <- p; go rest
    | "--reference" :: p :: rest -> a.reference <- p; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if a.workload = "" then usage ();
  a

let write_reference first last =
  let controller = Mbac.Controller.robust Sim_link.params in
  let entries =
    List.init (last - first + 1) (fun i ->
        let seed = first + i in
        let r = Sim_link.run ~seed ~events:Sim_link.reference_events controller in
        (seed, (r.Mbac_sim.Continuous_load.events, Sim_link.digest r)))
  in
  print_endline (Sim_link.reference_json entries)

let end_to_end a c =
  match a.workload with
  | "sim_link" ->
      let reference = Sim_link.load_reference a.reference in
      Sim_link.e2e ~reference ~seed:a.seed ~seconds:a.seconds c
  | "net_star" -> Net_star.e2e ~seed:a.seed ~seconds:a.seconds c
  | _ -> Serve_sock.e2e ~exe:a.daemon ~seed:a.seed ~seconds:a.seconds c

(* A decomposition adds back up when its residual is within this share
   of the untraced figure. *)
let tolerance = 0.15

let print_decomposition name (t : Sim_link.traced) =
  Printf.printf "\n%s decomposition (ns per event / per Decide):\n" name;
  List.iter (fun (row, v) -> Printf.printf "  %-48s %12.1f\n" row v) t.table;
  Printf.printf "  %-48s %+11.1f%%  (%s, tolerance +-%.0f%%)\n" "residual"
    (100.0 *. t.residual)
    (if Float.abs t.residual <= tolerance then "adds up" else "DOES NOT add up")
    (100.0 *. tolerance)

(* The traced run measures every layer, whichever workload is named:
   each layer's rows come from the workload that drives it (plus the
   isolated rows, measured first: the simulators' decompositions use
   them), so every traced run reports the full per-layer table.  The
   named workload's sweep runs first. *)
let traced a c =
  let clock = H.clock_ns () in
  let isolated = H.span "layers" (fun () -> Layers.metrics ~seed:a.seed) in
  let iso name = (List.find (fun m -> m.H.name = name) isolated).H.value in
  let sweep = function
    | "sim_link" ->
        ("sim_link", H.span "sim_link" (fun () -> Sim_link.traced ~seed:a.seed ~iso c))
    | "net_star" ->
        ("net_star", H.span "net_star" (fun () -> Net_star.traced ~seed:a.seed ~clock ~iso c))
    | _ -> ("serve_sock", H.span "serve_sock" (fun () -> Serve_sock.traced ~exe:a.daemon ~seed:a.seed c))
  in
  let order = a.workload :: List.filter (( <> ) a.workload) workloads in
  let results = List.map sweep order in
  Printf.printf "clock read: %.1f ns; one call in %d timed\n" clock H.sample_every;
  List.iter (fun (name, t) -> print_decomposition name t) results;
  let by name = (List.assoc name results).Sim_link.metrics in
  let metrics = by "sim_link" @ by "net_star" @ by "serve_sock" @ isolated in
  H.ensure_run_dir ();
  let path = Printf.sprintf "%s/trace-%s-%d.json" H.run_dir a.workload a.seed in
  Out_channel.with_open_bin path (fun oc -> output_string oc (H.spans_json ()));
  Printf.printf "spans written to %s\n" path;
  metrics

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write-reference"; first; last ] ->
      write_reference (int_of_string first) (int_of_string last)
  | _ ->
      let a = parse Sys.argv in
      let c = H.checks () in
      let metrics = if a.trace then traced a c else end_to_end a c in
      Printf.printf "\n%s seed %d (%s):\n" a.workload a.seed
        (if a.trace then "traced, per-layer" else "end-to-end");
      H.print_table stdout metrics;
      List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) (List.rev c.H.failures);
      let bad = List.filter (fun m -> not (Float.is_finite m.H.value)) metrics in
      List.iter (fun m -> Printf.printf "NOT FINITE: %s\n" m.H.name) bad;
      if bad <> [] then H.check c ~what:"non-finite metric" false;
      print_endline (H.result_json c metrics);
      exit (if c.H.failed = 0 then 0 else 1)
