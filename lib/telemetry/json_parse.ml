type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of { pos : int; msg : string }

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Error { pos = c.pos; msg })

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let n = String.length c.s in
  while
    c.pos < n
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some d when d = ch -> advance c
  | Some d -> fail c (Printf.sprintf "expected %C, found %C" ch d)
  | None -> fail c (Printf.sprintf "expected %C, found end of input" ch)

let expect_lit c lit v =
  let n = String.length lit in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = lit then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c (Printf.sprintf "invalid literal (expected %s)" lit)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "invalid \\u escape"

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
        | None -> fail c "unterminated escape"
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if c.pos + 4 > String.length c.s then fail c "truncated \\u";
                let cp = ref 0 in
                for _ = 1 to 4 do
                  cp := (!cp * 16) + hex_digit c c.s.[c.pos];
                  advance c
                done;
                add_utf8 b !cp
            | _ -> fail c "invalid escape"));
        loop ()
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let n = String.length c.s in
  if c.pos < n && c.s.[c.pos] = '-' then advance c;
  while
    c.pos < n
    &&
    match c.s.[c.pos] with
    | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
    | _ -> false
  do
    advance c
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Num f
  | None -> fail c (Printf.sprintf "invalid number %S" tok)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          fields := (key, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ()
          | Some '}' -> advance c
          | _ -> fail c "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let elts = ref [] in
        let rec elements () =
          let v = parse_value c in
          elts := v :: !elts;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements ()
          | Some ']' -> advance c
          | _ -> fail c "expected ',' or ']'"
        in
        elements ();
        List (List.rev !elts)
      end
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Result.Error
          (Printf.sprintf "offset %d: trailing characters after value" c.pos)
      else Ok v
  | exception Error { pos; msg } ->
      Result.Error (Printf.sprintf "offset %d: %s" pos msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Num f -> Some f
  | Null -> Some nan (* Json.float renders non-finite values as null *)
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj l -> Some l | _ -> None

let num x =
  let s = Json.float x in
  if (not (Float.is_finite x)) || float_of_string s = x then s
  else if Float.is_integer x then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec to_json = function
  | Null -> "null"
  | Bool b -> Json.bool b
  | Num x -> num x
  | Str s -> Json.string s
  | List l -> Json.arr (List.map to_json l)
  | Obj fields -> Json.obj (List.map (fun (k, v) -> (k, to_json v)) fields)
