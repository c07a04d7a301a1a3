(* Tests for the transport layer and the relying party's fetch policy:
   pricing, fault semantics, timeouts, budgets, retries, and the fallback
   ladder live -> mirror -> RRDP -> stale cache. *)

open Rpki_repo

let transfer_of (r : Relying_party.sync_result) uri =
  match
    List.find_opt (fun (tr : Relying_party.transfer) -> tr.Relying_party.t_uri = uri)
      r.Relying_party.transfers
  with
  | Some tr -> tr
  | None -> Alcotest.failf "no transfer recorded for %s" uri

let status_name = function
  | Relying_party.Fetched -> "fetched"
  | Relying_party.Fetched_mirror -> "mirror"
  | Relying_party.Fetched_rrdp -> "rrdp"
  | Relying_party.Stale_cache -> "stale"
  | Relying_party.Unavailable -> "unavailable"

let check_status what expected actual =
  Alcotest.(check string) what (status_name expected) (status_name actual)

(* --- probe pricing --- *)

let test_probe () =
  let pp = Pub_point.create ~uri:"rsync://a/repo" ~addr:1 ~host_asn:1 in
  let tr = Transport.create ~latency_of:(fun _ -> Some 5) () in
  (match Transport.probe tr ~point:pp ~timeout:10 with
  | `Ok 5 -> ()
  | _ -> Alcotest.fail "healthy point at latency 5 should cost 5");
  (match Transport.probe tr ~point:pp ~timeout:4 with
  | `Stalled 4 -> ()
  | _ -> Alcotest.fail "latency above the timeout spends the timeout");
  Transport.set_fault tr ~uri:"rsync://a/repo" (Transport.Slow 10);
  match Transport.probe tr ~point:pp ~timeout:100 with
  | `Ok 15 -> ()
  | _ -> Alcotest.fail "Slow adds to the base latency"

let test_probe_stalling_multiplies () =
  let pp = Pub_point.create ~uri:"rsync://a/repo" ~addr:1 ~host_asn:1 in
  let tr = Transport.create ~latency_of:(fun _ -> Some 5) () in
  Transport.set_fault tr ~uri:"rsync://a/repo" (Transport.Stalling 8);
  (match Transport.probe tr ~point:pp ~timeout:100 with
  | `Ok 48 -> ()
  | r ->
    Alcotest.failf "Stalling 8 over base 5 should cost (5+1)*8=48, got %s"
      (match r with
      | `Ok n -> Printf.sprintf "Ok %d" n
      | `Stalled n -> Printf.sprintf "Stalled %d" n
      | `Unroutable n -> Printf.sprintf "Unroutable %d" n));
  (* a zero-latency link still stalls once throttled hard enough *)
  let tr0 = Transport.create () in
  Transport.set_fault tr0 ~uri:"rsync://a/repo" (Transport.Stalling 50);
  match Transport.probe tr0 ~point:pp ~timeout:10 with
  | `Stalled 10 -> ()
  | _ -> Alcotest.fail "zero-latency stalling point must still stall"

let test_fault_table () =
  let tr = Transport.create () in
  Transport.set_fault tr ~uri:"a" (Transport.Slow 3);
  Transport.set_fault tr ~uri:"b" Transport.Unreachable;
  Alcotest.(check int) "two faults" 2 (List.length (Transport.faults tr));
  Transport.set_fault tr ~uri:"a" Transport.Healthy;
  Alcotest.(check int) "healthy clears" 1 (List.length (Transport.faults tr));
  (match Transport.fault_of tr ~uri:"b" with
  | Transport.Unreachable -> ()
  | _ -> Alcotest.fail "b still unreachable");
  Transport.clear_faults tr;
  Alcotest.(check int) "reset" 0 (List.length (Transport.faults tr))

let test_unroutable () =
  let pp = Pub_point.create ~uri:"rsync://a/repo" ~addr:1 ~host_asn:1 in
  let tr = Transport.create ~latency_of:(fun _ -> None) ~failure_cost:3 () in
  match Transport.probe tr ~point:pp ~timeout:100 with
  | `Unroutable 3 -> ()
  | _ -> Alcotest.fail "no route costs failure_cost"

(* --- fetch policy against the model --- *)

let shared = lazy (Rpki_repo.Model.build ())
let fresh_model () = Model.build ()
let continental_uri (m : Model.t) = Pub_point.uri (Authority.pub m.Model.continental)

let rp_for m = Model.relying_party m

let test_stall_falls_back_to_stale () =
  let m = Lazy.force shared in
  let rp = rp_for m in
  let uri = continental_uri m in
  let tr = Transport.instant () in
  (* healthy first sync seeds the cache *)
  let r1 = Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport:tr () in
  check_status "tick 1 live" Relying_party.Fetched (transfer_of r1 uri).Relying_party.t_status;
  Alcotest.(check int) "no staleness" 0 (Relying_party.max_data_age r1);
  (* then the point stalls *)
  Transport.set_fault tr ~uri (Transport.Stalling 1_000_000);
  let r2 = Relying_party.sync rp ~now:4 ~universe:m.Model.universe ~transport:tr () in
  let t2 = transfer_of r2 uri in
  check_status "tick 4 stale" Relying_party.Stale_cache t2.Relying_party.t_status;
  Alcotest.(check int) "data age = now - last good fetch" 3 t2.Relying_party.t_data_age;
  Alcotest.(check int) "result-level max age" 3 (Relying_party.max_data_age r2);
  Alcotest.(check string) "cache channel" "cache" t2.Relying_party.t_channel;
  (* retries were bounded: default policy issues 1 + retries attempts *)
  Alcotest.(check int) "bounded attempts"
    (1 + Relying_party.default_policy.Relying_party.retries)
    t2.Relying_party.t_attempts;
  (* stale copy still validates: same VRPs as the live sync *)
  Alcotest.(check int) "same vrps"
    (List.length r1.Relying_party.vrps)
    (List.length r2.Relying_party.vrps)

let test_mirror_fallback_over_transport () =
  let m = fresh_model () in
  let rp = rp_for m in
  let uri = continental_uri m in
  let mirror =
    Pub_point.create ~uri:"rsync://mirror/continental" ~addr:42 ~host_asn:99
  in
  Universe.add_mirror m.Model.universe ~of_uri:uri mirror;
  Universe.refresh_mirrors m.Model.universe;
  let tr = Transport.instant () in
  Transport.set_fault tr ~uri Transport.Unreachable;
  let r = Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport:tr () in
  let t = transfer_of r uri in
  check_status "mirror served" Relying_party.Fetched_mirror t.Relying_party.t_status;
  Alcotest.(check string) "channel names the mirror" "mirror:rsync://mirror/continental"
    t.Relying_party.t_channel;
  Alcotest.(check int) "mirror data is fresh" 0 (Relying_party.max_data_age r)

let test_rrdp_fallback () =
  let m = fresh_model () in
  let rp = rp_for m in
  let uri = continental_uri m in
  let endpoint = Pub_point.create ~uri:"https://rrdp/continental" ~addr:43 ~host_asn:99 in
  Universe.add_rrdp m.Model.universe ~of_uri:uri endpoint;
  Universe.refresh_rrdp m.Model.universe;
  let tr = Transport.instant () in
  Transport.set_fault tr ~uri Transport.Unreachable;
  let r = Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport:tr () in
  let t = transfer_of r uri in
  check_status "rrdp served" Relying_party.Fetched_rrdp t.Relying_party.t_status;
  Alcotest.(check string) "channel names the endpoint" "rrdp:https://rrdp/continental"
    t.Relying_party.t_channel;
  Alcotest.(check int) "rrdp data is fresh" 0 (Relying_party.max_data_age r);
  (* VRP set identical to a live sync *)
  let rp2 = rp_for m in
  let r2 = Relying_party.sync rp2 ~now:1 ~universe:m.Model.universe () in
  Alcotest.(check (list string)) "same vrps as live"
    (List.map Rpki_core.Vrp.to_string r2.Relying_party.vrps)
    (List.map Rpki_core.Vrp.to_string r.Relying_party.vrps)

(* RRDP outranks the stale cache but mirrors outrank RRDP *)
let test_fallback_order () =
  let m = fresh_model () in
  let rp = rp_for m in
  let uri = continental_uri m in
  let mirror = Pub_point.create ~uri:"rsync://mirror/continental" ~addr:42 ~host_asn:99 in
  Universe.add_mirror m.Model.universe ~of_uri:uri mirror;
  Universe.refresh_mirrors m.Model.universe;
  let endpoint = Pub_point.create ~uri:"https://rrdp/continental" ~addr:43 ~host_asn:99 in
  Universe.add_rrdp m.Model.universe ~of_uri:uri endpoint;
  Universe.refresh_rrdp m.Model.universe;
  let tr = Transport.instant () in
  Transport.set_fault tr ~uri Transport.Unreachable;
  let r = Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport:tr () in
  check_status "mirror first" Relying_party.Fetched_mirror
    (transfer_of r uri).Relying_party.t_status;
  (* mirror also dies: RRDP next *)
  Transport.set_fault tr ~uri:"rsync://mirror/continental" Transport.Unreachable;
  let r = Relying_party.sync rp ~now:2 ~universe:m.Model.universe ~transport:tr () in
  check_status "rrdp second" Relying_party.Fetched_rrdp
    (transfer_of r uri).Relying_party.t_status;
  (* RRDP endpoint dies too: stale cache last *)
  Transport.set_fault tr ~uri:"https://rrdp/continental" Transport.Unreachable;
  let r = Relying_party.sync rp ~now:3 ~universe:m.Model.universe ~transport:tr () in
  check_status "stale last" Relying_party.Stale_cache
    (transfer_of r uri).Relying_party.t_status

let test_budget_exhaustion_starves_later_points () =
  let m = fresh_model () in
  let rp = rp_for m in
  let uri = continental_uri m in
  let tr = Transport.instant () in
  (* seed the cache, then stall the victim under the naive policy *)
  ignore (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport:tr ());
  Transport.set_fault tr ~uri (Transport.Stalling 1_000_000);
  let r =
    Relying_party.sync rp ~now:2 ~universe:m.Model.universe ~transport:tr
      ~policy:Relying_party.naive_policy ()
  in
  Alcotest.(check bool) "budget exhausted" true r.Relying_party.budget_exhausted;
  Alcotest.(check int) "whole budget spent"
    Relying_party.naive_policy.Relying_party.sync_budget r.Relying_party.sync_elapsed;
  (* ETB sits after Continental in the walk and is perfectly healthy, yet
     the naive policy has no budget left for it — collateral starvation *)
  let etb_uri = Pub_point.uri (Authority.pub m.Model.etb) in
  check_status "healthy point starved" Relying_party.Stale_cache
    (transfer_of r etb_uri).Relying_party.t_status;
  (* the resilient policy confines the damage: ETB is fetched live *)
  let rp2 = rp_for m in
  ignore (Relying_party.sync rp2 ~now:1 ~universe:m.Model.universe ~transport:(Transport.instant ()) ());
  let r2 =
    Relying_party.sync rp2 ~now:2 ~universe:m.Model.universe ~transport:tr
      ~policy:Relying_party.resilient_policy ()
  in
  Alcotest.(check bool) "resilient keeps budget" false r2.Relying_party.budget_exhausted;
  check_status "healthy point still live" Relying_party.Fetched
    (transfer_of r2 etb_uri).Relying_party.t_status

let test_per_point_timeout_caps_spend () =
  let m = fresh_model () in
  let rp = rp_for m in
  let uri = continental_uri m in
  let tr = Transport.instant () in
  Transport.set_fault tr ~uri (Transport.Stalling 1_000_000);
  let policy =
    { Relying_party.default_policy with
      Relying_party.point_timeout = 7; retries = 0; backoff = 0 }
  in
  let r = Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport:tr ~policy () in
  let t = transfer_of r uri in
  Alcotest.(check int) "one attempt, one timeout spent" 7 t.Relying_party.t_elapsed;
  Alcotest.(check int) "single attempt" 1 t.Relying_party.t_attempts

let test_policy_without_fallbacks () =
  let m = fresh_model () in
  let rp = rp_for m in
  let uri = continental_uri m in
  let mirror = Pub_point.create ~uri:"rsync://mirror/continental" ~addr:42 ~host_asn:99 in
  Universe.add_mirror m.Model.universe ~of_uri:uri mirror;
  Universe.refresh_mirrors m.Model.universe;
  let tr = Transport.instant () in
  Transport.set_fault tr ~uri Transport.Unreachable;
  (* no cache, mirrors disabled: the point is simply unavailable *)
  let policy =
    { Relying_party.default_policy with Relying_party.use_mirrors = false; use_rrdp = false }
  in
  let r = Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport:tr ~policy () in
  check_status "unavailable" Relying_party.Unavailable
    (transfer_of r uri).Relying_party.t_status

(* --- the sim loop prices fetches off its own data plane --- *)

let test_loop_latency_circularity () =
  let sc = Rpki_sim.Loop.section6_scenario () in
  let sim = sc.Rpki_sim.Loop.sim in
  let r1 = Rpki_sim.Loop.step sim ~now:1 in
  (* before the first tick everything is priced at zero; afterwards each
     fetch costs per-hop time over the routed path *)
  Alcotest.(check int) "tick 1 free" 0 r1.Rpki_sim.Loop.sync_elapsed;
  let r2 = Rpki_sim.Loop.step sim ~now:2 in
  Alcotest.(check bool) "tick 2 pays per-hop latency" true
    (r2.Rpki_sim.Loop.sync_elapsed > 0);
  Alcotest.(check int) "healthy loop: no staleness" 0 r2.Rpki_sim.Loop.max_data_age;
  Alcotest.(check bool) "healthy loop: within budget" false
    r2.Rpki_sim.Loop.budget_exhausted

(* --- the Stall adversary --- *)

let test_stall_adversary () =
  let m = Lazy.force shared in
  let tr = Transport.instant () in
  let plan = Rpki_attack.Stall.plan_against ~victim:m.Model.sprint ~intensity:16 in
  (* Sprint's subtree: Sprint, ETB, Continental *)
  Alcotest.(check int) "subtree targets" 3
    (List.length (Rpki_attack.Stall.targets plan));
  Rpki_attack.Stall.apply plan tr;
  Alcotest.(check int) "faults installed" 3 (List.length (Transport.faults tr));
  (match Transport.fault_of tr ~uri:(Pub_point.uri (Authority.pub m.Model.etb)) with
  | Transport.Stalling 16 -> ()
  | _ -> Alcotest.fail "ETB should be stalling x16");
  (* lifting does not clobber a fault someone else re-marked *)
  Transport.set_fault tr ~uri:(Pub_point.uri (Authority.pub m.Model.etb)) Transport.Unreachable;
  Rpki_attack.Stall.lift plan tr;
  Alcotest.(check int) "lift leaves the re-marked fault" 1
    (List.length (Transport.faults tr));
  Alcotest.(check bool) "invalid plans rejected" true
    (try ignore (Rpki_attack.Stall.plan ~targets:[] ~intensity:2); false
     with Invalid_argument _ -> true)

(* --- staleness monitoring --- *)

let test_staleness_alerts () =
  let m = fresh_model () in
  let rp = rp_for m in
  let uri = continental_uri m in
  let tr = Transport.instant () in
  let r1 = Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport:tr () in
  Alcotest.(check int) "healthy sync: no staleness alerts" 0
    (List.length (Rpki_monitor.Monitor.staleness_alerts r1));
  Transport.set_fault tr ~uri (Transport.Stalling 1_000_000);
  let r2 = Relying_party.sync rp ~now:3 ~universe:m.Model.universe ~transport:tr () in
  let alerts = Rpki_monitor.Monitor.staleness_alerts ~threshold:4 r2 in
  Alcotest.(check int) "stale within threshold: warning" 1
    (List.length (Rpki_monitor.Monitor.warnings alerts));
  Alcotest.(check int) "no alarm yet" 0
    (List.length (Rpki_monitor.Monitor.alarms alerts));
  let r3 = Relying_party.sync rp ~now:9 ~universe:m.Model.universe ~transport:tr () in
  let alerts3 = Rpki_monitor.Monitor.staleness_alerts ~threshold:4 r3 in
  Alcotest.(check bool) "past threshold: alarm" true
    (List.length (Rpki_monitor.Monitor.alarms alerts3) >= 1)

(* --- RTR surfaces data staleness next to its serial --- *)

let test_rtr_data_age () =
  let sc = Rpki_sim.Loop.section6_scenario () in
  let sim = sc.Rpki_sim.Loop.sim in
  ignore (Rpki_sim.Loop.step sim ~now:1);
  let cache = Rpki_rtr.Server.cache (Rpki_sim.Loop.rtr_server sim) in
  Alcotest.(check int) "fresh data age" 0 (Rpki_rtr.Session.cache_data_age cache);
  (* stall every repository: the RP serves pure cache from now on *)
  List.iter
    (fun pp ->
      Rpki_repo.Transport.set_fault (Rpki_sim.Loop.transport sim)
        ~uri:(Pub_point.uri pp) Rpki_repo.Transport.Unreachable)
    (Universe.points sc.Rpki_sim.Loop.model.Model.universe);
  ignore (Rpki_sim.Loop.step sim ~now:5);
  Alcotest.(check int) "serial data now 4 ticks old" 4
    (Rpki_rtr.Session.cache_data_age cache)

let () =
  Alcotest.run "transport"
    [ ( "probe",
        [ Alcotest.test_case "pricing and timeouts" `Quick test_probe;
          Alcotest.test_case "stalling multiplies" `Quick test_probe_stalling_multiplies;
          Alcotest.test_case "fault table" `Quick test_fault_table;
          Alcotest.test_case "unroutable" `Quick test_unroutable ] );
      ( "fetch-policy",
        [ Alcotest.test_case "stall -> stale cache with age" `Quick test_stall_falls_back_to_stale;
          Alcotest.test_case "mirror fallback" `Quick test_mirror_fallback_over_transport;
          Alcotest.test_case "rrdp fallback" `Quick test_rrdp_fallback;
          Alcotest.test_case "fallback order" `Quick test_fallback_order;
          Alcotest.test_case "budget exhaustion starves" `Quick
            test_budget_exhaustion_starves_later_points;
          Alcotest.test_case "per-point timeout" `Quick test_per_point_timeout_caps_spend;
          Alcotest.test_case "fallbacks disabled" `Quick test_policy_without_fallbacks ] );
      ( "loop",
        [ Alcotest.test_case "latency from own data plane" `Quick test_loop_latency_circularity;
          Alcotest.test_case "rtr data age" `Quick test_rtr_data_age ] );
      ( "adversary",
        [ Alcotest.test_case "stall plan/apply/lift" `Quick test_stall_adversary;
          Alcotest.test_case "staleness alerts" `Quick test_staleness_alerts ] ) ]
