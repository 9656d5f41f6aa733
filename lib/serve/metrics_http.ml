(* Minimal HTTP/1.1 listener for scrapers and orchestrators.

   The line-JSON protocol needs an antlrkit client; Prometheus and
   Kubernetes speak HTTP GET.  This module serves exactly three read-only
   paths over a loopback-style listener:

     GET /metrics   Prometheus text format v0.0.4 ([Handler.prometheus])
     GET /health    liveness  ("ok\n")
     GET /ready     readiness ("ready\n")

   It is deliberately not a web server: requests are parsed just enough
   to extract the method and path, and responses always close the
   connection.  The listener is a [Server] with its own per-connection
   function, so each scrape gets a thread, as a line-protocol client does:
   a slow or stuck client is bounded by a receive timeout and a
   request-line cap, and delays no other scrape.  Scraping never touches
   the pool, only the metrics mutex, so a parse-request stall cannot block
   a scrape either.

   [stop] stops the server, which drains open scrapes, and joins its
   thread.  Bind with [port = 0] to let the kernel choose (tests);
   [port t] reports the actual binding. *)

type t = { server : Server.t; mutable thread : Thread.t option }

let max_request_line_bytes = 8192
let recv_timeout_s = 5.0

let port t = Option.get (Server.port t.server)

(* ------------------------------------------------------------------ *)
(* Request parsing: the request line, CR and LF already stripped, is all
   we need.  Returns the path of a well-formed GET, [`Bad_method] for other
   methods, [`Malformed] for anything that is not HTTP. *)

let parse_request_line (line : string) :
    [ `Get of string | `Bad_method | `Malformed ] =
  match String.split_on_char ' ' line with
  | [ "GET"; target; _http ] -> (
      (* strip any query string: /metrics?x=y scrapes /metrics *)
      match String.index_opt target '?' with
      | Some q -> `Get (String.sub target 0 q)
      | None -> `Get target)
  | [ _; _; _ ] -> `Bad_method
  | _ -> `Malformed

let response ~(status : string) ~(content_type : string) (body : string) :
    string =
  Printf.sprintf
    "HTTP/1.1 %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status content_type (String.length body) body

let prom_content_type = "text/plain; version=0.0.4; charset=utf-8"

let respond_to (h : Handler.t) (path : string) : string =
  match path with
  | "/metrics" ->
      response ~status:"200 OK" ~content_type:prom_content_type
        (Handler.prometheus h)
  | "/health" ->
      response ~status:"200 OK" ~content_type:"text/plain; charset=utf-8"
        "ok\n"
  | "/ready" ->
      response ~status:"200 OK" ~content_type:"text/plain; charset=utf-8"
        "ready\n"
  | _ ->
      response ~status:"404 Not Found"
        ~content_type:"text/plain; charset=utf-8"
        "not found (try /metrics, /health, /ready)\n"

(* One connection: read the request line (we never care about headers or
   a body: these are GETs), answer, and let [Server] close the socket. *)
let handle_conn (h : Handler.t) (_ : Server.t) (fd : Unix.file_descr) : unit
    =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout_s
   with Unix.Unix_error (_, _, _) -> ());
  let reply s = ignore (Server.write_all fd s) in
  match
    Server.read_line_bounded
      (Server.reader ~chunk_bytes:1024 fd)
      ~max_bytes:max_request_line_bytes
  with
  | exception Unix.Unix_error (_, _, _) -> () (* receive timeout *)
  | `Eof | `Too_long -> ()
  | `Line line -> (
      match parse_request_line line with
      | `Get path -> reply (respond_to h path)
      | `Bad_method ->
          reply
            (response ~status:"405 Method Not Allowed"
               ~content_type:"text/plain; charset=utf-8" "GET only\n")
      | `Malformed -> ())

(* Bind, spawn the listener thread, return.  [host] defaults to loopback:
   metrics are an operational surface, not a public one; bind 0.0.0.0
   explicitly if a scraper lives off-host. *)
let start ?(host = "127.0.0.1") ~(port : int) (handler : Handler.t) :
    (t, string) result =
  match
    Server.listen ~serve:(handle_conn handler)
      ~addr:(Protocol.Tcp (host, port)) ()
  with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot bind metrics listener on %s:%d: %s" host port
           (Unix.error_message err))
  | server -> Ok { server; thread = Some (Thread.create Server.run server) }

(* Idempotent: stops the listener, drains its connections and joins its
   thread; [Server.run] closes every fd. *)
let stop (t : t) : unit =
  match t.thread with
  | Some th ->
      t.thread <- None;
      Server.stop t.server;
      Thread.join th
  | None -> ()
