(* The per-link load core shared by Continuous_load and the network:
   the incremental sums against a from-scratch model, last-in-first-out
   slot reuse, the zero-residue reset on draining, and copy isolation. *)

open Test_util
module Link = Mbac_sim.Link

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
      let l = Link.create ~capacity:20.0 ~warmup:0.0 ~batch_length:1.0 in
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
      let release slot =
        Link.release l slot;
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
              let slot = Link.reserve l ~rate in
              expect "freed slots are reused last in, first out" (slot = want);
              Hashtbl.replace model slot rate
          | Release i -> Option.iter release (nth_live i)
          | Set (i, rate) ->
              Option.iter
                (fun slot ->
                  Link.set_rate l slot rate;
                  Hashtbl.replace model slot rate;
                  expect "set_rate grants the rate" (Link.rate l slot = rate))
                (nth_live i)
          | Drain ->
              List.iter release (live ());
              expect "drained link is empty" (Link.n l = 0)
          | Resync ->
              Link.resync l;
              expect "resync equals a from-scratch recomputation" (sums_match l)
          | Copy ->
              let c = Link.copy l in
              let n = Link.n l and sum = Link.sum_rate l
              and sq = Link.sum_sq l and now = Link.now l in
              let slot = Link.reserve c ~rate:3.0 in
              Link.set_rate c slot 4.0;
              ignore (Link.record_segment c ~t1:(now +. 1.0) : Link.transition);
              Link.resync c;
              expect "copy does not alias the original"
                (Link.n l = n && Link.sum_rate l = sum && Link.sum_sq l = sq
                && Link.now l = now
                && Link.n c = n + 1))
        ops;
      Link.resync l;
      expect "final resync matches the model" (sums_match l);
      !ok)

let suite = [ ("link", [ test_link_model ]) ]
