(* The serving wire protocol: encode/decode identity for every message
   type (floats compared by bits, so NaN payloads count), and the
   typed-error paths — every truncated prefix asks for more bytes, bad
   tags and bad lengths are structural errors, and nothing raises. *)

open Test_util
module P = Mbac_serve.Protocol

(* ---------- generators ---------- *)

let gen_f64 =
  (* wire floats are raw binary64: exercise magnitudes, signed zeros,
     infinities, and NaN *)
  QCheck.Gen.oneof
    [ QCheck.Gen.float;
      QCheck.Gen.oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; 1e-308 ] ]

let gen_u16 = QCheck.Gen.int_range 0 0xFFFF
let gen_u32 = QCheck.Gen.int_range 0 0xFFFFFFFF
let gen_i64 = QCheck.Gen.oneof [ QCheck.Gen.nat; QCheck.Gen.int_range 0 max_int ]

let gen_request =
  let open QCheck.Gen in
  oneof
    [ map (fun capacity -> P.Initialize { capacity }) gen_f64;
      map3
        (fun criterion load now -> P.Decide { criterion; load; now })
        gen_u16 gen_f64 gen_f64;
      map2 (fun load now -> P.Add { load; now }) gen_f64 gen_f64;
      map2 (fun load now -> P.Subtract { load; now }) gen_f64 gen_f64;
      map2
        (fun criterion admit -> P.Log_decision { criterion; admit })
        gen_u16 bool;
      return P.Stats;
      return P.Shutdown ]

let gen_response =
  let open QCheck.Gen in
  oneof
    [ return P.Ok_reply;
      map3
        (fun admit admissible flows -> P.Decision { admit; admissible; flows })
        bool gen_u32 gen_u32;
      (fun st ->
        let flows = gen_u32 st in
        let admitted_load = gen_f64 st in
        let capacity = gen_f64 st in
        let requests = gen_i64 st in
        let decisions = gen_i64 st in
        let admits = gen_i64 st in
        let updates = gen_i64 st in
        P.Stats_reply
          { flows; admitted_load; capacity; requests; decisions; admits;
            updates });
      map2
        (fun code message -> P.Error_reply { code; message })
        (int_range 0 0xFF)
        (string_size (int_range 0 300)) ]

(* floats compare by representation: the codec must move bits, not
   values (NaN = NaN here, 0.0 <> -0.0) *)
let f_eq a b = Int64.bits_of_float a = Int64.bits_of_float b

let request_eq (a : P.request) (b : P.request) =
  match (a, b) with
  | P.Initialize { capacity = c1 }, P.Initialize { capacity = c2 } ->
      f_eq c1 c2
  | ( P.Decide { criterion = i1; load = l1; now = n1 },
      P.Decide { criterion = i2; load = l2; now = n2 } ) ->
      i1 = i2 && f_eq l1 l2 && f_eq n1 n2
  | P.Add { load = l1; now = n1 }, P.Add { load = l2; now = n2 }
  | P.Subtract { load = l1; now = n1 }, P.Subtract { load = l2; now = n2 } ->
      f_eq l1 l2 && f_eq n1 n2
  | ( P.Log_decision { criterion = i1; admit = a1 },
      P.Log_decision { criterion = i2; admit = a2 } ) ->
      i1 = i2 && a1 = a2
  | P.Stats, P.Stats | P.Shutdown, P.Shutdown -> true
  | _ -> false

let response_eq (a : P.response) (b : P.response) =
  match (a, b) with
  | P.Ok_reply, P.Ok_reply -> true
  | ( P.Decision { admit = a1; admissible = m1; flows = f1 },
      P.Decision { admit = a2; admissible = m2; flows = f2 } ) ->
      a1 = a2 && m1 = m2 && f1 = f2
  | P.Stats_reply s1, P.Stats_reply s2 ->
      s1.flows = s2.flows
      && f_eq s1.admitted_load s2.admitted_load
      && f_eq s1.capacity s2.capacity
      && s1.requests = s2.requests && s1.decisions = s2.decisions
      && s1.admits = s2.admits && s1.updates = s2.updates
  | ( P.Error_reply { code = c1; message = m1 },
      P.Error_reply { code = c2; message = m2 } ) ->
      c1 = c2 && m1 = m2
  | _ -> false

let encode_to_bytes encode msg =
  let buf = Buffer.create 64 in
  encode buf msg;
  Buffer.to_bytes buf

(* ---------- round trips ---------- *)

let roundtrip_request =
  qcheck ~count:500 "request round trip" (QCheck.make gen_request) (fun req ->
      let bytes = encode_to_bytes P.encode_request req in
      match P.decode_request bytes ~pos:0 ~avail:(Bytes.length bytes) with
      | Ok (req', consumed) ->
          request_eq req req' && consumed = Bytes.length bytes
      | Error _ -> false)

let roundtrip_response =
  qcheck ~count:500 "response round trip" (QCheck.make gen_response)
    (fun resp ->
      let bytes = encode_to_bytes P.encode_response resp in
      match P.decode_response bytes ~pos:0 ~avail:(Bytes.length bytes) with
      | Ok (resp', consumed) ->
          response_eq resp resp' && consumed = Bytes.length bytes
      | Error _ -> false)

let roundtrip_offset =
  (* decoding must honor pos/avail, not assume the frame starts the
     buffer: embed the frame between junk bytes *)
  qcheck ~count:200 "request round trip at an offset" (QCheck.make gen_request)
    (fun req ->
      let frame = encode_to_bytes P.encode_request req in
      let n = Bytes.length frame in
      let padded = Bytes.make (n + 7) '\xAA' in
      Bytes.blit frame 0 padded 3 n;
      match P.decode_request padded ~pos:3 ~avail:n with
      | Ok (req', consumed) -> request_eq req req' && consumed = n
      | Error _ -> false)

(* ---------- truncation ---------- *)

let truncated_prefixes =
  qcheck ~count:100 "every strict prefix is Truncated, never an exception"
    (QCheck.make gen_request) (fun req ->
      let bytes = encode_to_bytes P.encode_request req in
      let n = Bytes.length bytes in
      let ok = ref true in
      for avail = 0 to n - 1 do
        match P.decode_request bytes ~pos:0 ~avail with
        | Error (P.Truncated { expected; got }) ->
            if not (got = avail && expected > avail && expected <= n) then
              ok := false
        | Ok _ | Error _ -> ok := false
      done;
      !ok)

(* ---------- structural errors ---------- *)

let frame_of_payload payload =
  let buf = Buffer.create 32 in
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.to_bytes buf

let decode bytes = P.decode_request bytes ~pos:0 ~avail:(Bytes.length bytes)

let test_bad_tag () =
  (match decode (frame_of_payload "\x7f") with
  | Error (P.Bad_tag 0x7f) -> ()
  | _ -> Alcotest.fail "unknown tag must decode as Bad_tag");
  (* response tags are not request tags and vice versa *)
  match decode (frame_of_payload "\x81") with
  | Error (P.Bad_tag 0x81) -> ()
  | _ -> Alcotest.fail "response tag in a request stream is Bad_tag"

let test_bad_lengths () =
  (* Stats carries no body: extra bytes are a structural error *)
  (match decode (frame_of_payload "\x06\x00") with
  | Error (P.Bad_frame _) -> ()
  | _ -> Alcotest.fail "oversized Stats payload must be Bad_frame");
  (* Decide body short by one byte, with the frame itself complete *)
  (match decode (frame_of_payload ("\x02" ^ String.make 17 '\x00')) with
  | Error (P.Bad_frame _) -> ()
  | _ -> Alcotest.fail "undersized Decide payload must be Bad_frame");
  (* zero-length payload *)
  (match decode (frame_of_payload "") with
  | Error (P.Bad_frame _) -> ()
  | _ -> Alcotest.fail "empty payload must be Bad_frame");
  (* declared length beyond the cap, with plenty of bytes available *)
  let big = Bytes.make 64 '\x00' in
  Bytes.set_int32_le big 0 (Int32.of_int (P.max_frame_payload + 1));
  match decode big with
  | Error (P.Bad_frame _) -> ()
  | _ -> Alcotest.fail "payload length above max_frame_payload is Bad_frame"

let test_error_reply_message_length () =
  (* Error_reply whose embedded string length disagrees with the payload *)
  let buf = Buffer.create 32 in
  P.encode_response buf (P.Error_reply { code = 7; message = "boom" });
  let bytes = Buffer.to_bytes buf in
  (* corrupt the u16 message length (offset 4 prefix + 1 tag + 1 code) *)
  Bytes.set_uint16_le bytes 6 9999;
  match P.decode_response bytes ~pos:0 ~avail:(Bytes.length bytes) with
  | Error (P.Bad_frame _) -> ()
  | _ -> Alcotest.fail "mismatched Error_reply string length is Bad_frame"

(* ---------- fuzzing ---------- *)

(* Arbitrary bytes with an in-bounds window [pos, pos + avail).  Most
   windows open with a real frame, whole or with a few bytes flipped, so
   many of them reach the body decoders instead of stopping at the
   header. *)
let fuzz_input =
  let open QCheck.Gen in
  let encoded =
    oneof
      [ map
          (fun r ->
            let b = Buffer.create 64 in
            P.encode_request b r;
            Buffer.contents b)
          gen_request;
        map
          (fun r ->
            let b = Buffer.create 64 in
            P.encode_response b r;
            Buffer.contents b)
          gen_response ]
  in
  let flip s =
    list_size (int_range 1 3) (pair nat (int_range 1 255)) >|= fun flips ->
    let b = Bytes.of_string s in
    if Bytes.length b > 0 then
      List.iter
        (fun (i, x) ->
          let i = i mod Bytes.length b in
          Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor x))
        flips;
    Bytes.to_string b
  in
  let frame =
    frequency
      [ (2, encoded);
        (2, encoded >>= flip);
        (1, string_size (int_range 0 96)) ]
  in
  let window =
    triple (string_size (int_range 0 16)) frame (string_size (int_range 0 16))
    >>= fun (lead, frame, tail) ->
    let s = lead ^ frame ^ tail in
    let n = String.length s in
    oneof [ return (String.length lead); int_range 0 n ] >>= fun pos ->
    oneof [ return (n - pos); int_range 0 (n - pos) ] >|= fun avail ->
    (s, pos, avail)
  in
  QCheck.make
    ~print:(fun (s, pos, avail) ->
      Printf.sprintf "%S pos %d avail %d" s pos avail)
    window

(* Decoding may depend only on the bytes in the window: flip every byte
   outside it and the result must not change. *)
let outside_flipped s ~pos ~avail =
  Bytes.mapi
    (fun i c ->
      if i >= pos && i < pos + avail then c
      else Char.chr (Char.code c lxor 0xA5))
    (Bytes.of_string s)

let fuzz name decode =
  qcheck ~count:2000 name fuzz_input (fun (s, pos, avail) ->
      let run b =
        match decode b ~pos ~avail with
        | r -> r
        | exception e ->
            QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      in
      let r = run (Bytes.of_string s) in
      (match r with
      | Ok (_, consumed) when consumed > avail ->
          QCheck.Test.fail_reportf "consumed %d of %d available" consumed avail
      | Ok _ | Error _ -> ());
      compare r (run (outside_flipped s ~pos ~avail)) = 0)

let fuzz_request = fuzz "decode_request on arbitrary bytes" P.decode_request
let fuzz_response = fuzz "decode_response on arbitrary bytes" P.decode_response

let suite =
  [ ( "serve_protocol",
      [ roundtrip_request;
        roundtrip_response;
        roundtrip_offset;
        truncated_prefixes;
        test "bad tags are typed errors" test_bad_tag;
        test "bad lengths are typed errors" test_bad_lengths;
        test "error-reply string length is validated"
          test_error_reply_message_length;
        fuzz_request;
        fuzz_response ] ) ]
