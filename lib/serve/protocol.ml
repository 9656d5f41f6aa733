(* Wire protocol for [antlrkit serve]: one JSON object per line, in both
   directions.  Line framing keeps the protocol trivially scriptable
   (printf + nc are a complete client) and makes request boundaries
   unambiguous without a length prefix; the server bounds line length
   (see [Handler.limits]) so a missing newline cannot buffer unboundedly.

   Requests:

     {"op":"ping"}
     {"op":"parse","grammar":"MiniJava","backend":"interp","text":"..."}
     {"op":"parse","grammar":"MiniJava","text":"...","window":4096}
     {"op":"parse_stream",...}                    alias of parse
     {"op":"load","grammar":"MiniSQL"}            load a builtin grammar
     {"op":"load","grammar":"my","text":"s:A;"}   compile grammar text
     {"op":"evict","grammar":"my"}
     {"op":"list"}
     {"op":"stats"}                               antlrkit-telemetry/2 doc
     {"op":"metrics"}                             Prometheus text format
     {"op":"health"}                              liveness probe
     {"op":"ready"}                               readiness + pool gauges
     {"op":"shutdown"}                            graceful drain + exit

   Every request may carry an "id" (any JSON value); it is echoed
   verbatim in the response so clients can pipeline over one connection.
   String and integer ids double as the request's correlation id: the
   daemon threads them into trace events and the slow-request log (other
   ids get a generated "r-<seq>").  Responses always carry "ok"; failures
   carry {"error":{"code":...,"message":...}} with machine-stable codes,
   and parse failures additionally carry "errors": structured
   [Parse_error.to_json] objects. *)

type backend = Interp | Generated

let backend_name = function Interp -> "interp" | Generated -> "generated"

let backend_of_string = function
  | "interp" -> Ok Interp
  | "generated" | "gen" -> Ok Generated
  | s -> Error (Printf.sprintf "unknown backend %S (interp|generated)" s)

type request = {
  id : Obs.Json.t; (* echoed verbatim; [Null] when absent *)
  op : string;
  grammar : string option;
  backend : backend;
  text : string option;
  start : string option; (* start rule override (interp backend only) *)
  recover : bool; (* error recovery: collect all errors (interp only) *)
  window : int option;
      (* token-window size, [1, max_tokens]; absent: the runtime default *)
}

(* ------------------------------------------------------------------ *)
(* Server addresses *)

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

(* "host:port" for TCP; anything else is a filesystem socket path. *)
let tcp_of_string (s : string) : (addr, string) result =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "%S: expected HOST:PORT" s)
  | Some i -> (
      let host = String.sub s 0 i
      and port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "%S: expected HOST:PORT" s))

(* ------------------------------------------------------------------ *)
(* JSON accessors (the Obs.Json document type is structural) *)

let member_str (k : string) (j : Obs.Json.t) : string option =
  match Obs.Json.member k j with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let member_bool (k : string) (j : Obs.Json.t) : bool option =
  match Obs.Json.member k j with
  | Some (Obs.Json.Bool b) -> Some b
  | _ -> None

let member_int (k : string) (j : Obs.Json.t) : int option =
  match Obs.Json.member k j with
  | Some (Obs.Json.Int i) -> Some i
  | _ -> None

let request_of_json (j : Obs.Json.t) : (request, string) result =
  match j with
  | Obs.Json.Obj _ -> (
      let id = Option.value (Obs.Json.member "id" j) ~default:Obs.Json.Null in
      match member_str "op" j with
      | None -> Error "missing or non-string \"op\""
      | Some op -> (
          let backend =
            match member_str "backend" j with
            | None -> Ok Interp
            | Some s -> backend_of_string s
          in
          match backend with
          | Error e -> Error e
          | Ok backend ->
              Ok
                {
                  id;
                  op;
                  grammar = member_str "grammar" j;
                  backend;
                  text = member_str "text" j;
                  start = member_str "start" j;
                  recover =
                    Option.value (member_bool "recover" j) ~default:false;
                  window = member_int "window" j;
                }))
  | _ -> Error "request must be a JSON object"

let parse_request (line : string) : (request, string) result =
  match Obs.Json.parse line with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok j -> request_of_json j

(* The client-supplied correlation id, when the "id" field is usable as
   one (a string or an integer).  [None] means the handler generates a
   per-daemon sequence id instead. *)
let client_req_id (req : request) : string option =
  match req.id with
  | Obs.Json.String s when s <> "" && String.length s <= 128 -> Some s
  | Obs.Json.Int i -> Some (string_of_int i)
  | Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.Float _ | Obs.Json.String _
  | Obs.Json.List _ | Obs.Json.Obj _ ->
      None

(* ------------------------------------------------------------------ *)
(* Response builders.  Field order is fixed (id, ok, op first) so logs
   and test expectations stay stable. *)

let ok_response ~(id : Obs.Json.t) ~(op : string)
    (fields : (string * Obs.Json.t) list) : Obs.Json.t =
  Obs.Json.obj
    (("id", id) :: ("ok", Obs.Json.bool true) :: ("op", Obs.Json.str op)
   :: fields)

(* Stable error codes: bad_request, unknown_op, unknown_grammar,
   unknown_backend, no_generated_parser, lex_error, parse_error,
   too_large, token_budget, time_budget, compile_error, shutting_down. *)
let error_response ~(id : Obs.Json.t) ~(code : string) ~(message : string)
    ?(extra : (string * Obs.Json.t) list = []) () : Obs.Json.t =
  Obs.Json.obj
    (("id", id)
    :: ("ok", Obs.Json.bool false)
    :: ( "error",
         Obs.Json.obj
           [
             ("code", Obs.Json.str code); ("message", Obs.Json.str message);
           ] )
    :: extra)
