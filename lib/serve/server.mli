(** Unix-domain socket front end for {!Engine}.

    A single-threaded [Unix.select] event loop: accept connections, read
    newline-delimited request lines into per-connection buffers, answer
    each line through [Engine.handle_line] in arrival order.  Query-level
    parallelism lives below, in the engine's domain pool — so the protocol
    layer stays trivially deterministic: per-connection response streams
    depend only on that connection's request stream (responses are pure
    functions of the request), never on how clients interleave.

    A line longer than [Engine.max_line_bytes] is answered with
    [Engine.line_too_long] and never parsed.  An unterminated line is
    answered as soon as it passes that cap, and its remaining bytes are
    dropped through the next newline, so a client's buffer stays within
    the cap plus one read. *)

val run :
  socket:string ->
  ?max_requests:int ->
  ?on_ready:(unit -> unit) ->
  Engine.t ->
  int
(** Bind [socket] (unlinking any stale file first), call [on_ready], and
    serve until a [shutdown] request arrives or [max_requests] lines have
    been answered (a safety stop for CI).  Returns the number of requests
    served; the socket file is unlinked on exit. *)
