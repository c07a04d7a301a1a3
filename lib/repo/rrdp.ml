(* An RRDP-style delta protocol (RFC 8182, simplified).

   The paper predates RRDP, but its Section 6 analysis is about *delivery*:
   rsync re-fetches whole directories, RRDP ships serial-numbered deltas
   from a notification file.  Modelling both lets the experiments ask
   whether the delivery protocol changes the circular-dependency story (it
   does not: RRDP still rides over TCP/IP whose routes the RPKI itself
   validates).

   A server tracks one publication point and versions its content; clients
   hold (session, serial) and apply deltas, falling back to a full snapshot
   on session change or when their serial has left the retained window. *)

type publish_el = { filename : string; bytes : string }
type withdraw_el = { w_filename : string; w_hash : string (* SHA-256 of the removed bytes *) }

type delta = {
  d_serial : int;
  publishes : publish_el list;  (* additions and overwrites *)
  withdraws : withdraw_el list;
}

type notification = {
  n_session : string;
  n_serial : int;
}

type server = {
  session : string;              (* random, changes on server reset *)
  point : Pub_point.t;           (* the source of truth *)
  mutable serial : int;
  mutable published : (string * string) list; (* state as of [serial] *)
  mutable deltas : delta list;   (* newest first *)
  history_limit : int;
}

let create ?(session_seed = "rrdp-session") ?(history_limit = 32) (point : Pub_point.t) =
  { session = Rpki_util.Hex.abbrev ~len:16 (Rpki_crypto.Sha256.digest (session_seed ^ Pub_point.uri point));
    point; serial = 0; published = []; deltas = []; history_limit }

(* Version the point's current content: compute the delta since the last
   [publish_now], if anything changed. *)
let publish_now server =
  let current = Pub_point.snapshot server.point in
  if current = server.published then None
  else begin
    let publishes =
      List.filter_map
        (fun (filename, bytes) ->
          match List.assoc_opt filename server.published with
          | Some old when String.equal old bytes -> None
          | _ -> Some { filename; bytes })
        current
    in
    let withdraws =
      List.filter_map
        (fun (filename, bytes) ->
          if List.mem_assoc filename current then None
          else Some { w_filename = filename; w_hash = Rpki_crypto.Sha256.digest bytes })
        server.published
    in
    server.serial <- server.serial + 1;
    let delta = { d_serial = server.serial; publishes; withdraws } in
    server.deltas <- delta :: server.deltas;
    if List.length server.deltas > server.history_limit then
      server.deltas <- List.filteri (fun i _ -> i < server.history_limit) server.deltas;
    server.published <- current;
    Some delta
  end

let notification server = { n_session = server.session; n_serial = server.serial }

let snapshot server = (server.serial, server.published)

(* The deltas needed to go from [serial] to the current state, oldest first;
   [None] when the window no longer reaches back that far. *)
let deltas_since server ~serial =
  if serial = server.serial then Some []
  else begin
    let needed = List.filter (fun d -> d.d_serial > serial) server.deltas in
    (* complete iff the oldest needed delta is serial+1 *)
    let sorted = List.sort (fun a b -> Int.compare a.d_serial b.d_serial) needed in
    match sorted with
    | first :: _ when first.d_serial = serial + 1 -> Some sorted
    | [] -> None
    | _ -> None
  end

(* --- client --- *)

type client = {
  mutable c_session : string option;
  mutable c_serial : int;
  mutable c_files : (string * string) list;
}

let create_client ?session ?(serial = 0) ?(files = []) () =
  { c_session = session; c_serial = serial; c_files = files }


exception Desync of string
(** A withdraw whose hash does not match is a protocol violation. *)

let apply_delta client (d : delta) =
  if d.d_serial <> client.c_serial + 1 then
    raise (Desync (Printf.sprintf "delta %d does not follow %d" d.d_serial client.c_serial));
  List.iter
    (fun w ->
      match List.assoc_opt w.w_filename client.c_files with
      | None -> raise (Desync (Printf.sprintf "withdraw of absent %s" w.w_filename))
      | Some bytes ->
        if not (Rpki_crypto.Hmac.equal_digest (Rpki_crypto.Sha256.digest bytes) w.w_hash) then
          raise (Desync (Printf.sprintf "withdraw hash mismatch on %s" w.w_filename));
        client.c_files <- List.remove_assoc w.w_filename client.c_files)
    d.withdraws;
  List.iter
    (fun p ->
      client.c_files <- (p.filename, p.bytes) :: List.remove_assoc p.filename client.c_files)
    d.publishes;
  client.c_serial <- d.d_serial

type sync_kind = Up_to_date | Applied_deltas of int | Full_snapshot

(* One RRDP round: read the notification, then either apply deltas or pull
   the snapshot. *)
let sync client server =
  let n = notification server in
  let take_snapshot () =
    let serial, files = snapshot server in
    client.c_session <- Some n.n_session;
    client.c_serial <- serial;
    client.c_files <- files;
    Full_snapshot
  in
  match client.c_session with
  | Some s when s = n.n_session -> (
    if client.c_serial = n.n_serial then Up_to_date
    else
      match deltas_since server ~serial:client.c_serial with
      | Some ds ->
        List.iter (apply_delta client) ds;
        Applied_deltas (List.length ds)
      | None -> take_snapshot ())
  | _ -> take_snapshot ()

let client_files client = List.sort (fun (a, _) (b, _) -> String.compare a b) client.c_files
