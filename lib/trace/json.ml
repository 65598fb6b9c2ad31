(* Minimal JSON tree shared by the trace exporters and the bench tooling.

   Printing keeps the [Int]/[Float] distinction observable: a float whose
   shortest form carries no '.', 'e' or 'n' gets a trailing ".0", so the
   parser maps it back to [Float] and counters emitted as [Int] stay exact
   through a round trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest of 15, 16 or 17 significant digits that parses back to
   the same float (17 always does). *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else begin
    let digits p = Printf.sprintf "%.*g" p f in
    let s =
      List.find_opt (fun s -> float_of_string s = f) [ digits 15; digits 16 ]
      |> Option.value ~default:(digits 17)
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
    else s ^ ".0"
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  to_buffer buf j;
  Buffer.contents buf

(* --- parser --------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int }

let fail cur msg = failwith (Printf.sprintf "Json.of_string: %s at %d" msg cur.pos)

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.s
    &&
    match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> cur.pos <- cur.pos + 1
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let k = String.length word in
  if
    cur.pos + k <= String.length cur.s && String.sub cur.s cur.pos k = word
  then begin
    cur.pos <- cur.pos + k;
    value
  end
  else fail cur ("expected " ^ word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if cur.pos >= String.length cur.s then fail cur "unterminated string";
    let c = cur.s.[cur.pos] in
    cur.pos <- cur.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      if cur.pos >= String.length cur.s then fail cur "unterminated escape";
      let e = cur.s.[cur.pos] in
      cur.pos <- cur.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        if cur.pos + 4 > String.length cur.s then fail cur "short \\u escape";
        let code = int_of_string ("0x" ^ String.sub cur.s cur.pos 4) in
        cur.pos <- cur.pos + 4;
        (* UTF-8 encode the BMP code point. *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | _ -> fail cur "bad escape");
      go ()
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while cur.pos < String.length cur.s && is_num_char cur.s.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  let tok = String.sub cur.s start (cur.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail cur ("bad number " ^ tok)
  else begin
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail cur ("bad number " ^ tok))
  end

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    expect cur '{';
    skip_ws cur;
    if peek cur = Some '}' then begin
      expect cur '}';
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          expect cur ',';
          members ((k, v) :: acc)
        | Some '}' ->
          expect cur '}';
          List.rev ((k, v) :: acc)
        | _ -> fail cur "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    expect cur '[';
    skip_ws cur;
    if peek cur = Some ']' then begin
      expect cur ']';
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          expect cur ',';
          elements (v :: acc)
        | Some ']' ->
          expect cur ']';
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']'"
      in
      List (elements [])
    end
  | Some '"' -> String (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> parse_number cur

let of_string s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b
  | String a, String b -> String.equal a b
  | List a, List b -> List.equal equal a b
  | Obj a, Obj b ->
    List.equal (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
  | _ -> false
