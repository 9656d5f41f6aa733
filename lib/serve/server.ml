(* Socket server for the serve daemon.

   Shape: one accept loop (the caller's thread, inside [run]) multiplexing
   the listen socket against a self-pipe with [select]; one lightweight
   sys-thread per connection running the server's per-connection function.
   [create] serves the line-JSON protocol ([conn_loop]: newline-framed
   requests through [Handler.handle]); [Metrics_http] is the same server
   with an HTTP request/response function.  Parse work itself runs on the
   handler's Exec.Pool, so connection threads spend their lives blocked on
   sockets, not burning CPU.

   Graceful shutdown (a shutdown request, [stop], or a signal wired to
   [stop]): the accept loop closes the listen socket, then shuts down the
   *receive* side of every open connection.  An idle connection's reader
   sees EOF and exits; a connection mid-request still owns its send side,
   so the in-flight response is written before the thread exits.  [run]
   then waits until every connection thread has closed its socket (after
   that a thread only returns, so none is kept to be joined), removes a
   Unix socket path, and returns -- the caller exits 0 with no request
   dropped mid-parse. *)

type t = {
  serve : t -> Unix.file_descr -> unit;
      (* one connection's life, run on its own thread; [serve_conn]
         closes the fd when it returns *)
  addr : Protocol.addr;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr; (* self-pipe: anything written means stop *)
  stop_w : Unix.file_descr;
  lock : Mutex.t;
  drained : Condition.t;
  mutable conns : Unix.file_descr list;
  bound_port : int option; (* TCP port the kernel bound; [None] on a path *)
  pipe_lock : Mutex.t; (* guards the self-pipe's writes and its closing *)
  mutable pipe_closed : bool; (* [run] has closed the self-pipe *)
}

let listen_on (addr : Protocol.addr) : Unix.file_descr =
  (match addr with
  | Protocol.Unix_sock path ->
      (* A stale socket file from a crashed daemon blocks bind; a live
         daemon would still be accepting on it, and two daemons on one
         path is operator error either way. *)
      if Sys.file_exists path then Sys.remove path
  | Protocol.Tcp _ -> ());
  let sa = Protocol.sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  try
    (match addr with
    | Protocol.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Protocol.Unix_sock _ -> ());
    Unix.bind fd sa;
    Unix.listen fd 64;
    fd
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

(* Bind [addr] and return a server that runs [serve] on a thread per
   accepted connection.  Raises [Unix.Unix_error] if the bind fails. *)
let listen ~(serve : t -> Unix.file_descr -> unit) ~(addr : Protocol.addr)
    () : t =
  (* A client that disconnects mid-response must cost us an EPIPE write
     error, not a process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let listen_fd = listen_on addr in
  let stop_r, stop_w = Unix.pipe () in
  {
    serve;
    addr;
    listen_fd;
    stop_r;
    stop_w;
    lock = Mutex.create ();
    drained = Condition.create ();
    conns = [];
    bound_port =
      (match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> Some p
      | Unix.ADDR_UNIX _ -> None);
    pipe_lock = Mutex.create ();
    pipe_closed = false;
  }

(* The TCP port the listen socket is bound to (the kernel's choice when
   [addr] asked for port 0); [None] on a Unix socket. *)
let port (t : t) : int option = t.bound_port

(* [Mutex.protect], which OCaml 4.14 lacks. *)
let with_lock (m : Mutex.t) (f : unit -> 'a) : 'a =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e

(* Signal-safe and idempotent: makes the self-pipe readable, unless [run]
   has already closed it.  Only [stop] and [run]'s closing take
   [pipe_lock], so a signal handler that finds it held by its own thread
   (the re-lock raises [Sys_error]) has interrupted a stop or the close:
   the server is stopping either way, and the request is dropped. *)
let stop (t : t) : unit =
  try
    with_lock t.pipe_lock (fun () ->
        if not t.pipe_closed then
          ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1))
  with _ -> ()

(* ------------------------------------------------------------------ *)
(* Bounded line reading.  A connection's [reader] holds the unread rest of
   its last read, [chunk.(pos .. len - 1)], and the bytes of a line begun in
   earlier reads, [pending]; every byte read is scanned for a newline once
   ([scanned] counts them), so a line costs time linear in its length.  A
   line longer than [max_bytes] -- not counting its "\n" or "\r\n" -- is a
   protocol violation (the handler would refuse it anyway) and poisons the
   framing, so the connection is dropped after an error response. *)

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  pending : Buffer.t;
  mutable scanned : int;
}

let reader ?(chunk_bytes = 65536) (fd : Unix.file_descr) : reader =
  {
    fd;
    chunk = Bytes.create chunk_bytes;
    pos = 0;
    len = 0;
    pending = Buffer.create 256;
    scanned = 0;
  }

let read_line_bounded (r : reader) ~(max_bytes : int) :
    [ `Line of string | `Eof | `Too_long ] =
  let complete line =
    let n = String.length line in
    (* tolerate CRLF clients *)
    let n = if n > 0 && line.[n - 1] = '\r' then n - 1 else n in
    if n > max_bytes then `Too_long else `Line (String.sub line 0 n)
  in
  let take_pending () =
    let line = Buffer.contents r.pending in
    Buffer.clear r.pending;
    line
  in
  let rec newline i =
    if i >= r.len || Bytes.unsafe_get r.chunk i = '\n' then i
    else newline (i + 1)
  in
  let rec go () =
    let i = newline r.pos in
    if i < r.len then begin
      r.scanned <- r.scanned + (i + 1 - r.pos);
      let line =
        if Buffer.length r.pending = 0 then
          Bytes.sub_string r.chunk r.pos (i - r.pos)
        else begin
          Buffer.add_subbytes r.pending r.chunk r.pos (i - r.pos);
          take_pending ()
        end
      in
      r.pos <- i + 1;
      complete line
    end
    else begin
      r.scanned <- r.scanned + (r.len - r.pos);
      Buffer.add_subbytes r.pending r.chunk r.pos (r.len - r.pos);
      r.pos <- r.len;
      (* one byte over the limit may still be a CR *)
      if Buffer.length r.pending > max_bytes + 1 then `Too_long
      else
        match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
        | 0 ->
            (* EOF: a trailing unterminated line still gets served --
               printf-without-newline clients are too common to punish. *)
            if Buffer.length r.pending = 0 then `Eof
            else complete (take_pending ())
        | n ->
            r.pos <- 0;
            r.len <- n;
            go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
            `Eof
    end
  in
  go ()

let write_all (fd : Unix.file_descr) (s : string) : bool =
  let len = String.length s in
  let rec go off =
    if off >= len then true
    else
      match Unix.write_substring fd s off (len - off) with
      | 0 -> false
      | n -> go (off + n)
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The line-JSON protocol: one request per line, one response per line. *)

let conn_loop (handler : Handler.t) t (fd : Unix.file_descr) : unit =
  let max_bytes = handler.Handler.limits.Handler.max_request_bytes in
  let r = reader fd in
  let continue_ = ref true in
  while !continue_ do
    match read_line_bounded r ~max_bytes with
    | `Eof -> continue_ := false
    | `Too_long ->
        ignore
          (write_all fd
             (Obs.Json.to_string
                (Protocol.error_response ~id:Obs.Json.Null ~code:"too_large"
                   ~message:
                     (Printf.sprintf "request line exceeds %d bytes"
                        max_bytes)
                   ())
             ^ "\n"));
        continue_ := false
    | `Line "" -> () (* blank keep-alive lines are fine *)
    | `Line line ->
        let resp, action = Handler.handle handler line in
        if not (write_all fd (resp ^ "\n")) then continue_ := false;
        (match action with
        | `Shutdown ->
            stop t;
            continue_ := false
        | `Continue -> ())
  done

let create ~(handler : Handler.t) ~(addr : Protocol.addr) () : t =
  listen ~serve:(conn_loop handler) ~addr ()

(* ------------------------------------------------------------------ *)
(* Accept loop and drain *)

(* A connection's thread: run [serve], then close the fd and drop it
   from [conns] under the lock, so [drain] never shuts down a closed (or
   reused) descriptor. *)
let serve_conn t (fd : Unix.file_descr) : unit =
  Fun.protect
    ~finally:(fun () ->
      with_lock t.lock (fun () ->
          t.conns <- List.filter (fun c -> c <> fd) t.conns;
          (try Unix.close fd with _ -> ());
          if t.conns = [] then Condition.broadcast t.drained))
    (fun () -> t.serve t fd)

let accept_loop t : unit =
  let running = ref true in
  while !running do
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if List.mem t.stop_r readable then running := false
        else if List.mem t.listen_fd readable then begin
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error (_, _, _) -> ()
          | fd, _ ->
              with_lock t.lock (fun () -> t.conns <- fd :: t.conns);
              ignore (Thread.create (serve_conn t) fd)
        end
  done

let drain t : unit =
  Mutex.lock t.lock;
  (* Poke every open connection's receive side: idle readers see EOF
     immediately; a thread mid-request keeps its send side and finishes
     the response first. *)
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
    t.conns;
  while t.conns <> [] do
    Condition.wait t.drained t.lock
  done;
  Mutex.unlock t.lock

(* Serve until stopped, then drain gracefully.  Returns when every
   accepted request has been answered and every connection closed. *)
let run (t : t) : unit =
  accept_loop t;
  (try Unix.close t.listen_fd with _ -> ());
  drain t;
  with_lock t.pipe_lock (fun () ->
      t.pipe_closed <- true;
      List.iter
        (fun fd -> try Unix.close fd with _ -> ())
        [ t.stop_r; t.stop_w ]);
  match t.addr with
  | Protocol.Unix_sock path -> ( try Sys.remove path with _ -> ())
  | Protocol.Tcp _ -> ()
