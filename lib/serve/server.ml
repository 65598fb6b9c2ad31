(* [discarding]: the client's current line passed the length cap and was
   answered; its bytes are dropped through the next newline. *)
type client = { fd : Unix.file_descr; buf : Buffer.t; mutable discarding : bool }

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Pop the first complete line (without its newline) off a buffer. *)
let pop_line buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear buf;
    Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let run ~socket ?max_requests ?(on_ready = fun () -> ()) engine =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 16;
  on_ready ();
  (* Clients kept in accept order (an explicit list, not a hashtable) so
     the drain order below is reproducible. *)
  let clients = ref [] in
  let served = ref 0 in
  let finished = ref false in
  let limit_reached () =
    match max_requests with Some k -> !served >= k | None -> false
  in
  let drop c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    clients := List.filter (fun c' -> c'.fd <> c.fd) !clients
  in
  (* Lines longer than this are answered with an error and not parsed,
     so a client's buffer never holds much more than it. *)
  let cap = Engine.max_line_bytes engine in
  (* Write one response; false once the client is gone or serving must
     stop. *)
  let answer c resp =
    incr served;
    let alive =
      try
        write_all c.fd (resp ^ "\n");
        true
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* The fd is closed now; any pipelined lines still buffered for
           this client must not be served to it. *)
        drop c;
        false
    in
    if Engine.shutdown_requested engine || limit_reached () then begin
      finished := true;
      false
    end
    else alive
  in
  let serve_ready_lines c =
    let continue = ref true in
    while !continue do
      match pop_line c.buf with
      | None -> continue := false
      | Some line ->
        if String.length line > cap then
          continue := answer c (Engine.line_too_long engine)
        else if String.trim line <> "" then
          continue := answer c (Engine.handle_line engine line)
    done;
    (* An unterminated line already past the cap: answer it now and drop
       the rest of it as it arrives. *)
    if (not !finished) && List.memq c !clients && Buffer.length c.buf > cap
    then begin
      Buffer.clear c.buf;
      c.discarding <- true;
      ignore (answer c (Engine.line_too_long engine))
    end
  in
  let chunk = Bytes.create 4096 in
  while not !finished do
    let fds = srv :: List.map (fun c -> c.fd) !clients in
    let ready, _, _ = Unix.select fds [] [] 1.0 in
    List.iter
      (fun fd ->
        if !finished then ()
        else if fd = srv then begin
          let cfd, _ = Unix.accept srv in
          clients :=
            !clients @ [ { fd = cfd; buf = Buffer.create 256; discarding = false } ]
        end
        else
          match List.find_opt (fun c -> c.fd = fd) !clients with
          | None -> ()
          | Some c -> (
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> drop c
            | k ->
              let start =
                if not c.discarding then 0
                else begin
                  let i = ref 0 in
                  while !i < k && Bytes.get chunk !i <> '\n' do
                    incr i
                  done;
                  if !i < k then c.discarding <- false;
                  min k (!i + 1)
                end
              in
              Buffer.add_subbytes c.buf chunk start (k - start);
              serve_ready_lines c
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> drop c))
      ready
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    !clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  !served
