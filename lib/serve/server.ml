module H = Mbac_telemetry.Metrics.Handle

let m_latency = H.qhist "serve_decision_latency_seconds"
let m_connections = H.counter "serve_connections_total"

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let handle_frame engine bytes ~pos ~avail out =
  let t0 = now_ns () in
  match Protocol.decode_request bytes ~pos ~avail with
  | Error _ as e -> e
  | Ok (req, consumed) ->
      let resp = Engine.handle engine req in
      Protocol.encode_response out resp;
      (match req with
      | Protocol.Decide _ ->
          H.observe_q m_latency ((now_ns () -. t0) /. 1e9)
      | _ -> ());
      Ok (consumed, match req with Protocol.Shutdown -> `Shutdown | _ -> `Continue)

let conn_opened () = H.inc m_connections

let conn_closed ~peer ~requests =
  if Mbac_telemetry.Trace.enabled () then
    Mbac_telemetry.Trace.emit ~t:0.0 ~kind:"serve_conn"
      [ ("peer", Mbac_telemetry.Trace.Str peer);
        ("requests", Mbac_telemetry.Trace.Int requests) ]

(* ---------- socket transport ---------- *)

let write_all fd bytes len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let serve_connection engine fd ~peer =
  (* One frame-assembly buffer per connection, sized for the largest
     legal frame; a frame split across reads is compacted to the front. *)
  let inbuf = Bytes.create (2 * (4 + Protocol.max_frame_payload)) in
  let fill = ref 0 in
  let out = Buffer.create 512 in
  let outbytes = ref (Bytes.create 512) in
  let requests = ref 0 in
  let result = ref `Closed in
  let continue = ref true in
  (try
     while !continue do
       (* drain every complete frame currently buffered *)
       Buffer.clear out;
       let pos = ref 0 in
       let progress = ref true in
       while !progress do
         match handle_frame engine inbuf ~pos:!pos ~avail:(!fill - !pos) out with
         | Ok (consumed, what) ->
             incr requests;
             pos := !pos + consumed;
             if what = `Shutdown then begin
               result := `Shutdown;
               continue := false;
               progress := false
             end
         | Error (Protocol.Truncated _) -> progress := false
         | Error e ->
             Protocol.encode_response out
               (Protocol.Error_reply
                  { code = 255; message = Protocol.error_to_string e });
             continue := false;
             progress := false
       done;
       if !pos > 0 then begin
         Bytes.blit inbuf !pos inbuf 0 (!fill - !pos);
         fill := !fill - !pos
       end;
       let n_out = Buffer.length out in
       if n_out > 0 then begin
         if Bytes.length !outbytes < n_out then
           outbytes := Bytes.create n_out;
         Buffer.blit out 0 !outbytes 0 n_out;
         write_all fd !outbytes n_out
       end;
       if !continue then begin
         let n = Unix.read fd inbuf !fill (Bytes.length inbuf - !fill) in
         if n = 0 then continue := false else fill := !fill + n
       end
     done
   with Unix.Unix_error _ | End_of_file -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  conn_closed ~peer ~requests:!requests;
  !result

(* Wake a blocked [accept] after shutdown was requested from a service
   thread: connect-and-close a throwaway client.  (Closing the listening
   descriptor from another thread does not reliably interrupt accept.) *)
let wake path =
  try
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with Unix.Unix_error _ -> ());
    Unix.close fd
  with Unix.Unix_error _ -> ()

let run_unix engine ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stop = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      (* Live connection threads by id.  A thread drops itself on exit
         (threads run detached, so nothing else needs reclaiming); it is
         registered under the same lock it takes to drop itself, so it
         cannot drop itself before it is there. *)
      let live = Hashtbl.create 16 in
      let lock = Mutex.create () in
      let conn_id = ref 0 in
      let backoff = ref 0.001 in
      (try
         while not (Atomic.get stop) do
           match Unix.accept sock with
           | fd, _ ->
               backoff := 0.001;
               if Atomic.get stop then Unix.close fd
               else begin
                 conn_opened ();
                 incr conn_id;
                 let peer = Printf.sprintf "unix-%d" !conn_id in
                 Mutex.protect lock (fun () ->
                     let th =
                       Thread.create
                         (fun () ->
                           (match serve_connection engine fd ~peer with
                           | `Shutdown ->
                               Atomic.set stop true;
                               wake path
                           | `Closed -> ());
                           Mutex.protect lock (fun () ->
                               Hashtbl.remove live (Thread.id (Thread.self ()))))
                         ()
                     in
                     Hashtbl.replace live (Thread.id th) th)
               end
           | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ()
           (* Out of descriptors: the connection stays queued until a
              service thread closes one.  Back off, re-checking [stop]. *)
           | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
               Thread.delay !backoff;
               backoff := Float.min 0.1 (2.0 *. !backoff)
         done
       with Unix.Unix_error (e, _, _) ->
         prerr_endline ("mbac_serve: accept: " ^ Unix.error_message e));
      List.iter Thread.join
        (Mutex.protect lock (fun () -> List.of_seq (Hashtbl.to_seq_values live))))

