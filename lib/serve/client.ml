(* Blocking line-JSON client for [antlrkit serve]: one socket, requests
   written line-by-line, responses read line-by-line.  Used by the
   [antlrkit client] subcommand, the load bench and the smoke tests; a
   shell script with nc works just as well, which is the point of the
   protocol. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect (addr : Protocol.addr) : t =
  let sa = Protocol.sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Poll until the server is accepting: daemon startup (grammar compiles,
   cache loads) races the first client in scripts and CI. *)
let connect_retry ?(attempts = 100) ?(delay_s = 0.1)
    (addr : Protocol.addr) : (t, string) result =
  let rec go n last_err =
    if n <= 0 then
      Error
        (Printf.sprintf "could not connect to %s: %s"
           (Protocol.addr_to_string addr) last_err)
    else
      match connect addr with
      | c -> Ok c
      | exception Unix.Unix_error (e, _, _) ->
          Unix.sleepf delay_s;
          go (n - 1) (Unix.error_message e)
      | exception e ->
          Unix.sleepf delay_s;
          go (n - 1) (Printexc.to_string e)
  in
  go attempts "no attempt made"

let send_line (c : t) (line : string) : unit =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv_line (c : t) : string option =
  match input_line c.ic with
  | line -> Some line
  | exception End_of_file -> None

(* One synchronous round trip. *)
let request_line (c : t) (line : string) : (string, string) result =
  send_line c line;
  match recv_line c with
  | Some resp -> Ok resp
  | None -> Error "server closed the connection"

let request (c : t) (j : Obs.Json.t) : (Obs.Json.t, string) result =
  match request_line c (Obs.Json.to_string j) with
  | Error _ as e -> e
  | Ok resp -> (
      match Obs.Json.parse resp with
      | Ok j -> Ok j
      | Error msg -> Error ("invalid response JSON: " ^ msg))

let close (c : t) : unit =
  (try flush c.oc with _ -> ());
  try Unix.close c.fd with _ -> ()
