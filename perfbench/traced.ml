(* The traced replay of [Loop.step].  [Loop.step] is one call, so per-layer cost has
   to be measured from outside the library: [step] below replays
   [Loop.step]'s call sequence through the layers' public functions and
   [Loop.t]'s public fields, with a span around each layer call.  The
   benchmark checks on every tick that its records equal an untraced
   [Loop.step] run on the same seed, so the spans describe the same
   program.  This module goes away once spans are recorded inside [Loop]. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp
module Loop = Rpki_sim.Loop
module Server = Rpki_rtr.Server
module Session = Rpki_rtr.Session

type span = {
  id : int;
  name : string;
  tick : int;
  vantage : string;       (* "" when the span is not per-vantage *)
  parent : int;           (* id of the enclosing span; -1 at top level *)
  t0 : int64;             (* monotonic ns *)
  t1 : int64;
  minor_words : float;    (* allocated while the span was open *)
}

(* Spans stay in memory, newest first, and are written out at exit. *)
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let current_tick = ref 0

let with_span ?(vantage = "") name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let finish () =
    let t1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    open_spans := List.tl !open_spans;
    spans :=
      { id; name; tick = !current_tick; vantage; parent; t0; t1; minor_words = w1 -. w0 }
      :: !spans
  in
  Fun.protect ~finally:finish f

let span_hook = { Workload.span = (fun name f -> with_span name f) }

(* Per-tick work counters, read at the same layer boundaries as the spans. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let counti name v =
  Hashtbl.replace counters name
    (float_of_int v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"tick\":%d,\"vantage\":%S,\"parent\":%d,\
         \"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%.0f}\n"
        s.id s.name s.tick s.vantage s.parent s.t0 s.t1 s.minor_words)
    (List.rev !spans);
  close_out oc

(* --- the replayed step: Loop.step with a span around every layer call --- *)

let is_dead (t : Loop.t) name = List.mem name t.Loop.dead

let regression_uri = function
  | Relying_party.Serial_regression { rg_uri; _ }
  | Relying_party.Content_equivocation { rg_uri; _ } -> rg_uri

let install_hold (t : Loop.t) ~uri =
  if not (List.mem_assoc uri t.Loop.held_uris) then begin
    let good = Option.value ~default:[] (List.assoc_opt uri t.Loop.point_good) in
    let current =
      if is_dead t (Relying_party.name t.Loop.rp) then []
      else Relying_party.point_vrps t.Loop.rp ~uri
    in
    let prefixes =
      List.sort_uniq compare (List.map (fun (v : Vrp.t) -> v.Vrp.prefix) (good @ current))
    in
    List.iter
      (fun prefix ->
        let pinned =
          List.filter (fun (v : Vrp.t) -> Rpki_ip.V4.Prefix.equal v.Vrp.prefix prefix) good
        in
        Server.hold t.Loop.rtr ~prefix ~vrps:pinned)
      prefixes;
    if prefixes <> [] then t.Loop.held_uris <- (uri, prefixes) :: t.Loop.held_uris
  end

let sync_counters (r : Relying_party.sync_result) =
  counti "rp.points_revalidated" r.Relying_party.points_revalidated;
  counti "rp.points_reused" r.Relying_party.points_reused;
  counti "rp.fetch_fallbacks"
    (List.length
       (List.filter
          (fun (x : Relying_party.transfer) -> not (String.equal x.Relying_party.t_channel "live"))
          r.Relying_party.transfers))

let step (t : Loop.t) ~now =
  current_tick := now;
  Hashtbl.reset counters;
  let rsa0 = Rpki_crypto.Rsa.verification_count () in
  let rtr0 = Server.stats t.Loop.rtr in
  let disk0 = Option.fold ~none:0 ~some:Rpki_persist.Disk.bytes_written t.Loop.disk in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  with_span "universe.refresh" (fun () ->
      Universe.refresh_mirrors t.Loop.universe;
      Universe.refresh_rrdp t.Loop.universe);
  with_span "valcache.tick" (fun () ->
      match t.Loop.valcache with
      | Some vc -> Valcache.begin_tick vc ~digest:(Valcache.universe_digest t.Loop.universe)
      | None -> ());
  let verifies_before = Rpki_crypto.Rsa.verification_count () in
  let primary_alive = not (is_dead t (Relying_party.name t.Loop.rp)) in
  let result =
    with_span ~vantage:(Relying_party.name t.Loop.rp) "rp.sync_primary" (fun () ->
        if primary_alive then
          Some
            (Relying_party.sync t.Loop.rp ~now ~universe:t.Loop.universe
               ~transport:t.Loop.transport ~policy:t.Loop.fetch_policy
               ?valcache:t.Loop.valcache ())
        else None)
  in
  Option.iter sync_counters result;
  with_span "rp.sync_vantages" (fun () ->
      List.iter
        (fun (v : Gossip.vantage) ->
          if (not (v.Gossip.v_rp == t.Loop.rp)) && not (is_dead t v.Gossip.v_name) then
            sync_counters
              (with_span ~vantage:v.Gossip.v_name "rp.sync" (fun () ->
                   Relying_party.sync v.Gossip.v_rp ~now ~universe:t.Loop.universe
                     ~transport:v.Gossip.v_transport ~policy:t.Loop.fetch_policy
                     ?valcache:t.Loop.valcache ())))
        t.Loop.vantages);
  let sig_checks = Rpki_crypto.Rsa.verification_count () - verifies_before in
  let vstats = Option.map Valcache.tick_stats t.Loop.valcache in
  let sig_saved = match vstats with Some s -> s.Valcache.sig_saved | None -> 0 in
  Option.iter
    (fun s ->
      counti "valcache.sig_checked" s.Valcache.sig_checked;
      counti "valcache.sig_saved" s.Valcache.sig_saved;
      counti "valcache.point_hits" s.Valcache.point_hits;
      counti "valcache.point_misses" s.Valcache.point_misses)
    vstats;
  with_span "rtr.publish" (fun () ->
      match result with
      | Some r ->
        let base = Vrp.apply_diff r.Relying_party.vrps (Vrp.invert_diff r.Relying_party.diff) in
        Server.publish_diff ~expect_base:(Vrp.fingerprint base) t.Loop.rtr r.Relying_party.diff;
        Server.set_data_age t.Loop.rtr (Relying_party.max_data_age r);
        Server.set_unsafe t.Loop.rtr (List.length r.Relying_party.unsafe_vrps)
      | None -> ());
  let regressions = match result with Some r -> r.Relying_party.regressions | None -> [] in
  if regressions <> [] then
    with_span "rtr.hold" (fun () ->
        List.iter (fun rg -> install_hold t ~uri:(regression_uri rg)) regressions);
  let cache = Server.cache t.Loop.rtr in
  let rtr_index =
    with_span "ov.build" (fun () -> Origin_validation.build (Session.cache_vrps cache))
  in
  counti "ov.vrps" (Origin_validation.vrp_count rtr_index);
  let validity_of r = Origin_validation.classify rtr_index r in
  let net =
    with_span "data_plane.build" (fun () ->
        Data_plane.build ~topo:t.Loop.topo ~policy_of:(fun _ -> t.Loop.policy) ~validity_of
          t.Loop.announcements)
  in
  counti "data_plane.ribs" (List.length net.Data_plane.ribs);
  t.Loop.net <- Some net;
  let probe_results, fetch_failures =
    with_span "data_plane.probes" (fun () ->
        let probe_results =
          List.map
            (fun (p : Loop.probe) ->
              ( p.Loop.label,
                Data_plane.reaches net ~src:(Relying_party.asn t.Loop.rp) ~addr:p.Loop.addr
                  ~expected:p.Loop.expected_origin ))
            t.Loop.probes
        in
        let fetch_failures =
          match result with
          | None -> []
          | Some r ->
            List.filter_map
              (fun (uri, st) ->
                match st with
                | Relying_party.Fetched | Relying_party.Fetched_mirror
                | Relying_party.Fetched_rrdp -> None
                | Relying_party.Stale_cache | Relying_party.Unavailable -> Some uri)
              r.Relying_party.fetches
        in
        (probe_results, fetch_failures))
  in
  let gossip_report =
    match t.Loop.gossip with
    | Some g when now mod t.Loop.gossip_period = 0 ->
      Some
        (with_span "gossip.round" (fun () ->
             Gossip.round ~alive:(fun n -> not (is_dead t n)) g ~now))
    | _ -> None
  in
  (match gossip_report with
  | None -> ()
  | Some rep ->
    counti "gossip.pulls" rep.Gossip.r_pulls;
    counti "gossip.verifies" rep.Gossip.r_verifies;
    counti "gossip.verifies_saved" rep.Gossip.r_verifies_saved;
    counti "gossip.proofs_built" rep.Gossip.r_proofs_built;
    counti "gossip.proofs_reused" rep.Gossip.r_proofs_reused;
    counti "gossip.proof_bytes" rep.Gossip.r_proof_bytes;
    if rep.Gossip.r_alarms <> [] then
      with_span "gossip.verify_fork" (fun () ->
          let key_of = Workload.key_of t in
          let primary_name = Relying_party.name t.Loop.rp in
          let honest_side = function
            | Gossip.Fork { left; right; _ } ->
              if String.equal left.Gossip.att_vantage primary_name then Some right
              else if String.equal right.Gossip.att_vantage primary_name then Some left
              else None
            | Gossip.Rollback { rb_earlier; _ } -> Some rb_earlier
            | _ -> None
          in
          List.iter
            (fun alarm ->
              match alarm with
              | Gossip.Fork { fork_uri = uri; _ } | Gossip.Rollback { rb_uri = uri; _ } ->
                if Gossip.verify_fork ~key_of alarm then begin
                  (match honest_side alarm with
                  | None -> ()
                  | Some side -> (
                    let vrp_hash = side.Gossip.att_obs.Rpki_transparency.Log.ob_vrp_hash in
                    match Relying_party.rollback_last_good t.Loop.rp ~uri ~vrp_hash with
                    | Some vrps ->
                      t.Loop.point_good <- (uri, vrps) :: List.remove_assoc uri t.Loop.point_good
                    | None -> ()));
                  install_hold t ~uri
                end
              | Gossip.Inconsistent_heads _ | Gossip.Bad_head_signature _
              | Gossip.Bad_inclusion _ | Gossip.Log_reset _ -> ())
            rep.Gossip.r_alarms));
  with_span "rp.last_good" (fun () ->
      match result with
      | None -> ()
      | Some r ->
        let regressed = List.map regression_uri regressions in
        List.iter
          (fun (uri, _) ->
            if (not (List.mem_assoc uri t.Loop.held_uris)) && not (List.mem uri regressed) then
              t.Loop.point_good <-
                (uri, Relying_party.point_vrps t.Loop.rp ~uri)
                :: List.remove_assoc uri t.Loop.point_good)
          r.Relying_party.fetches);
  if Loop.persistence_enabled t then begin
    with_span "persist.save" (fun () ->
        let mode = if t.Loop.save_full then `Full else `Auto in
        if primary_alive then begin
          let store = Loop.vantage_store t ~name:(Relying_party.name t.Loop.rp) in
          ignore
            (Relying_party.save t.Loop.rp ~now ~mode
               ~rtr_serial:(Session.cache_serial cache) store)
        end;
        List.iter
          (fun (v : Gossip.vantage) ->
            if (not (v.Gossip.v_rp == t.Loop.rp)) && not (is_dead t v.Gossip.v_name) then
              ignore
                (Relying_party.save v.Gossip.v_rp ~now ~mode
                   (Loop.vantage_store t ~name:v.Gossip.v_name)))
          t.Loop.vantages);
    if t.Loop.compact_every > 0 && now mod t.Loop.compact_every = 0 then
      with_span "persist.compact" (fun () ->
          List.iter
            (fun (_, store) -> ignore (Relying_party.compact_store store ~now))
            t.Loop.stores)
  end;
  with_span "rtr.flush" (fun () -> ignore (Server.flush ~domains:t.Loop.rtr_domains t.Loop.rtr));
  let record =
    { Loop.time = now;
      vrp_count =
        (match result with
        | Some r -> List.length r.Relying_party.vrps
        | None -> List.length (Session.cache_vrps cache));
      issue_count =
        (match result with Some r -> List.length r.Relying_party.issues | None -> 0);
      fetch_failures;
      probe_results;
      vrp_diff = (match result with Some r -> r.Relying_party.diff | None -> Vrp.empty_diff);
      rtr_serial = Session.cache_serial cache;
      points_reused =
        (match result with Some r -> r.Relying_party.points_reused | None -> 0);
      points_revalidated =
        (match result with Some r -> r.Relying_party.points_revalidated | None -> 0);
      sync_elapsed = (match result with Some r -> r.Relying_party.sync_elapsed | None -> 0);
      max_data_age = (match result with Some r -> Relying_party.max_data_age r | None -> 0);
      budget_exhausted =
        (match result with Some r -> r.Relying_party.budget_exhausted | None -> false);
      gossip_report;
      regressions;
      rtr_holds = List.length (Session.cache_holds cache);
      sig_checks;
      sig_saved;
      unsafe_count =
        (match result with Some r -> List.length r.Relying_party.unsafe_vrps | None -> 0) }
  in
  with_span "valcache.tick" (fun () ->
      match t.Loop.valcache with
      | Some vc when t.Loop.valcache_evict -> Valcache.end_tick vc ~now
      | _ -> ());
  if t.Loop.keep_history then t.Loop.history <- record :: t.Loop.history;
  (* end-of-tick state and work counters *)
  Option.iter
    (fun vc ->
      let rs = Valcache.residency vc in
      counti "valcache.resident" (rs.Valcache.rs_verdicts + rs.Valcache.rs_outcomes))
    t.Loop.valcache;
  let leaves rp = Rpki_transparency.Log.size (Relying_party.transparency_log rp) in
  counti "rp.log_leaves"
    (List.fold_left
       (fun acc (v : Gossip.vantage) ->
         if v.Gossip.v_rp == t.Loop.rp then acc else acc + leaves v.Gossip.v_rp)
       (leaves t.Loop.rp) t.Loop.vantages);
  counti "rsa.verifications" (Rpki_crypto.Rsa.verification_count () - rsa0);
  let rtr1 = Server.stats t.Loop.rtr in
  counti "rtr.bytes_encoded" (rtr1.Server.bytes_encoded - rtr0.Server.bytes_encoded);
  counti "rtr.bytes_sent" (rtr1.Server.bytes_sent - rtr0.Server.bytes_sent);
  counti "rtr.resets" (rtr1.Server.resets - rtr0.Server.resets);
  Option.iter
    (fun d -> counti "persist.bytes_written" (Rpki_persist.Disk.bytes_written d - disk0))
    t.Loop.disk;
  (* sealed segment files on the disk ([Store.segment_count] would decode
     every chain inside the traced tick) *)
  let is_segment name =
    match String.split_on_char '.' name |> List.rev with
    | g :: "seg" :: _ -> int_of_string_opt g <> None
    | _ -> false
  in
  Option.iter
    (fun d ->
      counti "persist.segments"
        (List.length (List.filter is_segment (Rpki_persist.Disk.files d))))
    t.Loop.disk;
  counti "gc.major_collections" ((Gc.quick_stat ()).Gc.major_collections - majors0);
  record
