(* The per-link core shared by Continuous_load and the network: the
   incremental sums against a from-scratch model, last-in-first-out slot
   reuse, the zero-residue reset on draining, the controller seeing
   every change, and copy isolation. *)

open Test_util
module Link = Mbac_sim.Link

(* A controller that admits without limit and remembers what the link
   showed it: the last observation, admissions and departures. *)
type witness = {
  mutable last : Mbac.Observation.t option;
  mutable admits : int;
  mutable departs : int;
}

let rec witness_controller w =
  Mbac.Controller.make ~name:"witness"
    ~observe:(fun o -> w.last <- Some o)
    ~admissible:(fun _ -> max_int)
    ~on_admit:(fun _ -> w.admits <- w.admits + 1)
    ~on_depart:(fun _ -> w.departs <- w.departs + 1)
    ~reset:(fun () ->
      w.last <- None;
      w.admits <- 0;
      w.departs <- 0)
    ~copy:(fun () -> witness_controller { w with last = w.last })
    ()

type op =
  | Reserve of float
  | Release of int
  | Set of int * float
  | Drain
  | Resync
  | Copy

let show = function
  | Reserve r -> Printf.sprintf "Reserve %h" r
  | Release i -> Printf.sprintf "Release %d" i
  | Set (i, r) -> Printf.sprintf "Set (%d, %h)" i r
  | Drain -> "Drain"
  | Resync -> "Resync"
  | Copy -> "Copy"

let gen_op =
  QCheck.Gen.(
    frequency
      [ (5, map (fun r -> Reserve r) (float_bound_inclusive 10.0));
        (3, map (fun i -> Release i) nat);
        (3, map2 (fun i r -> Set (i, r)) nat (float_bound_inclusive 10.0));
        (1, return Drain);
        (2, return Resync);
        (1, return Copy) ])

let ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show l))
    QCheck.Gen.(list_size (int_range 0 300) gen_op)

let test_link_model =
  qcheck ~count:300 "link sums, slot reuse and copy match a model" ops
    (fun ops ->
      let w = { last = None; admits = 0; departs = 0 } in
      let l =
        Link.create ~capacity:20.0 ~warmup:0.0 ~batch_length:1.0
          ~controller:(witness_controller w) ~max_flows:max_int
      in
      (* model: live slot -> granted rate, the free stack, the fresh
         high-water mark *)
      let model = Hashtbl.create 16 in
      let freed = ref [] and fresh = ref 0 in
      let live () =
        List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) model [])
      in
      let ok = ref true in
      let expect what b =
        if not b then begin
          ok := false;
          QCheck.Test.fail_reportf "%s" what
        end
      in
      (* sums in slot order, the order of the resync scan *)
      let sums_match l =
        let slots = live () in
        let rates = List.map (Hashtbl.find model) slots in
        Link.n l = List.length slots
        && Link.sum_rate l = List.fold_left ( +. ) 0.0 rates
        && Link.sum_sq l = List.fold_left (fun a r -> a +. (r *. r)) 0.0 rates
      in
      (* the controller has seen the current state and every admission
         and departure *)
      let shown () =
        w.last = Some (Link.observation l)
        && w.admits = Link.reserved l
        && w.departs = Link.released l
      in
      expect "the controller sees the empty link" (shown ());
      let release slot =
        ignore (Link.depart l slot : Mbac.Observation.t);
        expect "a departure is shown to the controller" (shown ());
        Hashtbl.remove model slot;
        freed := slot :: !freed;
        if Link.n l = 0 then
          expect "empty link keeps no residue"
            (Link.sum_rate l = 0.0 && Link.sum_sq l = 0.0)
      in
      let nth_live i =
        match live () with
        | [] -> None
        | slots -> Some (List.nth slots (i mod List.length slots))
      in
      List.iter
        (function
          | Reserve rate ->
              let want =
                match !freed with
                | s :: rest ->
                    freed := rest;
                    s
                | [] ->
                    incr fresh;
                    !fresh - 1
              in
              expect "room while under max_flows"
                (Link.room l (Link.observe l));
              let slot = Link.admit l ~rate in
              expect "freed slots are reused last in, first out" (slot = want);
              expect "an admission is shown to the controller" (shown ());
              Hashtbl.replace model slot rate
          | Release i -> Option.iter release (nth_live i)
          | Set (i, rate) ->
              Option.iter
                (fun slot ->
                  let obs = Link.renegotiate l slot rate in
                  Hashtbl.replace model slot rate;
                  expect "renegotiate grants the rate" (Link.rate l slot = rate);
                  expect "a renegotiation is shown to the controller"
                    (shown () && w.last = Some obs))
                (nth_live i)
          | Drain ->
              List.iter release (live ());
              expect "drained link is empty" (Link.n l = 0)
          | Resync ->
              Link.resync l;
              expect "resync equals a from-scratch recomputation" (sums_match l)
          | Copy ->
              let c = Link.copy l in
              let seen = (w.last, w.admits, w.departs) in
              let n = Link.n l and sum = Link.sum_rate l
              and sq = Link.sum_sq l and now = Link.now l in
              let slot = Link.admit c ~rate:3.0 in
              ignore (Link.renegotiate c slot 4.0 : Mbac.Observation.t);
              ignore (Link.record_segment c ~t1:(now +. 1.0) : Link.transition);
              Link.resync c;
              expect "copy does not alias the original"
                (Link.n l = n && Link.sum_rate l = sum && Link.sum_sq l = sq
                && Link.now l = now
                && Link.n c = n + 1);
              expect "the copy's controller is its own"
                (seen = (w.last, w.admits, w.departs)))
        ops;
      Link.resync l;
      expect "final resync matches the model" (sums_match l);
      !ok)

let suite = [ ("link", [ test_link_model ]) ]
