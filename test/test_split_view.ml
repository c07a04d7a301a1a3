(* End-to-end split-view detection (the ISSUE's acceptance experiment).

   A split-view authority forks the victim relying party's view of
   Continental's repository, suppressing the ROA that keeps the victim
   route (63.174.16.0/20, AS 17054) valid.  With two or more gossiping
   vantages the fork is caught — with verifiable cryptographic evidence —
   strictly before the graced VRP expires and the route goes invalid.
   A single non-gossiping vantage never notices: the stealthy fork is
   locally clean.

   Plus the false-positive guard: an honest universe observed through
   faulty-but-consistent transports (slow and stalling points) never
   raises a fork or consistency alarm over a full run. *)

open Rpki_core
open Rpki_bgp
open Rpki_repo
open Rpki_sim
module Split_view = Rpki_attack.Split_view

let probe_up r label =
  match List.assoc_opt label r.Loop.probe_results with
  | Some up -> up
  | None -> Alcotest.fail ("no probe " ^ label)

let run_with_attack ~monitors ~grace ~gossip_period ~ticks =
  let sv = Loop.split_view_scenario ~monitors ~grace ~gossip_period () in
  let t = sv.Loop.sv_sim in
  Timeline.Split_view.run ~attack_at:3 ~ticks ~authority:sv.Loop.sv_model.Model.continental
    ~target_filename:sv.Loop.sv_target_filename t;
  (sv, t)

(* With >= 2 gossiping vantages: fork alarm, verifiable, strictly inside the
   grace window — and the verified evidence now freezes the affected
   prefixes on the RTR cache, so the victim route *survives* the fork
   instead of dying when grace expires (the evidence-triggered hold). *)
let test_detected_before_invalid () =
  let grace = 4 in
  let attack_at = 3 in
  let sv, t = run_with_attack ~monitors:2 ~grace ~gossip_period:1 ~ticks:10 in
  let fork_tick =
    match Loop.first_fork_tick t with
    | Some tk -> tk
    | None -> Alcotest.fail "no fork alarm raised"
  in
  Alcotest.(check bool)
    (Printf.sprintf "fork detected (t%d) before grace would expire (t%d)" fork_tick
       (attack_at + grace))
    true
    (fork_tick < attack_at + grace);
  (* detection no longer stops at the alert layer: the hold pins the
     suppressed VRP at last-good, so the route outlives the grace window *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "victim route still up at t%d (held)" r.Loop.time)
        true (probe_up r "continental-repo");
      if r.Loop.time > fork_tick then
        Alcotest.(check bool)
          (Printf.sprintf "hold active at t%d" r.Loop.time)
          true (r.Loop.rtr_holds > 0))
    (Loop.history t);
  (* the alarm's evidence stands on its own: re-verified from scratch
     against the vantages' public keys *)
  let g = Option.get (Loop.gossip_mesh t) in
  let key_of = Gossip.key_of g in
  let forks = Gossip.forks g in
  Alcotest.(check bool) "at least one fork alarm" true (forks <> []);
  List.iter
    (fun a ->
      Alcotest.(check bool) "fork evidence verifies from scratch" true
        (Gossip.verify_fork ~key_of a))
    forks;
  (* and the fork names the right publication point *)
  let continental_uri = Pub_point.uri (Authority.pub sv.Loop.sv_model.Model.continental) in
  List.iter
    (fun a ->
      match a with
      | Gossip.Fork { fork_uri; _ } ->
        Alcotest.(check string) "forked point" continental_uri fork_uri
      | _ -> ())
    forks

(* A single vantage, no gossip: the stealthy fork is locally invisible —
   no fork alarm (there is no mesh), and no new validation issue beyond the
   grace bookkeeping note. *)
let test_single_vantage_misses_it () =
  let _, t = run_with_attack ~monitors:0 ~grace:4 ~gossip_period:1 ~ticks:6 in
  Alcotest.(check bool) "no gossip mesh" true (Loop.gossip_mesh t = None);
  Alcotest.(check bool) "no fork tick" true (Loop.first_fork_tick t = None);
  List.iter
    (fun r ->
      match r.Loop.gossip_report with
      | Some _ -> Alcotest.fail "gossip ran without a mesh"
      | None -> ())
    (Loop.history t);
  (* every issue the victim saw after the fork is the grace hold, not a
     validation failure: the stealthy fork verifies locally *)
  match Relying_party.last_result (Loop.vantage t ~name:"victim-rp").Gossip.v_rp with
  | None -> Alcotest.fail "no sync result"
  | Some res ->
    List.iter
      (fun (i : Relying_party.issue) ->
        let is_grace_note =
          String.length i.Relying_party.reason >= 6
          && String.equal (String.sub i.Relying_party.reason 0 6) "grace:"
        in
        Alcotest.(check bool)
          ("local issue is only the grace note: " ^ i.Relying_party.reason)
          true is_grace_note)
      res.Relying_party.issues

(* An overt fork (file dropped, honest manifest kept) is locally visible:
   the victim's own validation flags the manifest mismatch. *)
let test_overt_fork_is_locally_visible () =
  let sv = Loop.split_view_scenario ~monitors:0 ~grace:4 () in
  let t = sv.Loop.sv_sim in
  ignore (Loop.step t ~now:1);
  let atk =
    Split_view.plan ~authority:sv.Loop.sv_model.Model.continental
      ~target_filename:sv.Loop.sv_target_filename ~stealth:Split_view.Overt ()
  in
  Split_view.apply atk (Loop.transport t);
  let r = Loop.step t ~now:2 in
  Alcotest.(check bool) "manifest violation surfaces" true (r.Loop.issue_count > 0);
  match Relying_party.last_result (Loop.vantage t ~name:"victim-rp").Gossip.v_rp with
  | None -> Alcotest.fail "no sync result"
  | Some res ->
    Alcotest.(check bool) "a non-grace issue exists" true
      (List.exists
         (fun (i : Relying_party.issue) ->
           not
             (String.length i.Relying_party.reason >= 6
             && String.equal (String.sub i.Relying_party.reason 0 6) "grace:"))
         res.Relying_party.issues)

(* Lifting the fork heals the victim: the honest view returns and no new
   alarms are raised after the lift. *)
let test_lift_heals () =
  let sv, t = run_with_attack ~monitors:2 ~grace:8 ~gossip_period:1 ~ticks:4 in
  let atk =
    Split_view.plan ~authority:sv.Loop.sv_model.Model.continental
      ~target_filename:sv.Loop.sv_target_filename ()
  in
  Split_view.lift atk (Loop.transport t);
  let before = List.length (Gossip.alarms (Option.get (Loop.gossip_mesh t))) in
  for now = 5 to 8 do
    ignore (Loop.step t ~now)
  done;
  let after = List.length (Gossip.alarms (Option.get (Loop.gossip_mesh t))) in
  Alcotest.(check int) "no new alarms after lift" before after;
  (* the victim route stayed up throughout: grace outlasted the fork *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "route up at t%d" r.Loop.time)
        true (probe_up r "continental-repo"))
    (Loop.history t)

(* The false-positive guard (ISSUE satellite): honest universe, three
   vantages, Slow and Stalling faults on repository points — a full run
   raises no alarm of any kind. *)
let test_no_false_positives_under_faulty_transport () =
  let sv = Loop.split_view_scenario ~monitors:3 ~grace:2 ~gossip_period:1 () in
  let t = sv.Loop.sv_sim in
  let continental_uri = Pub_point.uri (Authority.pub sv.Loop.sv_model.Model.continental) in
  let sprint_uri = Pub_point.uri (Authority.pub sv.Loop.sv_model.Model.sprint) in
  ignore (Loop.step t ~now:1);
  (* degrade different vantages differently: the victim's view of
     Continental crawls, one monitor's view of Sprint stalls outright *)
  Transport.set_fault (Loop.transport t) ~uri:continental_uri (Transport.Slow 3);
  Transport.set_fault
    (Loop.vantage_transport t ~name:"monitor-sprint")
    ~uri:sprint_uri (Transport.Stalling 50);
  for now = 2 to 6 do
    ignore (Loop.step t ~now)
  done;
  Transport.clear_fault (Loop.transport t) ~uri:continental_uri;
  Transport.clear_fault (Loop.vantage_transport t ~name:"monitor-sprint") ~uri:sprint_uri;
  for now = 7 to 9 do
    ignore (Loop.step t ~now)
  done;
  let g = Option.get (Loop.gossip_mesh t) in
  List.iter
    (fun a -> Alcotest.fail ("false positive: " ^ Gossip.describe_alarm a))
    (Gossip.alarms g)

(* Detection latency grows with the gossip period but detection never
   fails while grace holds. *)
let test_gossip_period_trades_latency () =
  List.iter
    (fun period ->
      let _, t = run_with_attack ~monitors:2 ~grace:6 ~gossip_period:period ~ticks:10 in
      match Loop.first_fork_tick t with
      | None -> Alcotest.fail (Printf.sprintf "period %d: fork missed" period)
      | Some tk ->
        Alcotest.(check bool)
          (Printf.sprintf "period %d: detected by t%d" period tk)
          true
          (tk >= 3 && tk <= 3 + period))
    [ 1; 2; 3 ]

(* The late-fork regression: with gossip_period > 1 the victim syncs the
   tainted view on an off-round tick, so last-good absorbs it *before* the
   fork is proven.  The honest-side rollback must then walk the victim's
   own point history back to the newest state matching the proven-honest
   side's VRP-set hash — so both last-good and the RTR hold freeze at
   honest data, not at the absorbed tainted view. *)
let test_late_fork_rolls_back_last_good () =
  let sv = Loop.split_view_scenario ~monitors:2 ~grace:6 ~gossip_period:2 () in
  let t = sv.Loop.sv_sim in
  let uri = Pub_point.uri (Authority.pub sv.Loop.sv_model.Model.continental) in
  let target =
    Rpki_core.Vrp.make ~max_len:20 (Rpki_ip.V4.p "63.174.16.0/20") 17054
  in
  let has_target l =
    List.exists (fun v -> Rpki_core.Vrp.compare v target = 0) l
  in
  ignore (Loop.step t ~now:1);
  ignore (Loop.step t ~now:2);
  let honest = List.assoc uri t.Loop.point_good in
  Alcotest.(check bool) "honest last-good carries the target VRP" true
    (has_target honest);
  let atk =
    Split_view.plan ~authority:sv.Loop.sv_model.Model.continental
      ~target_filename:sv.Loop.sv_target_filename ()
  in
  Split_view.apply atk (Loop.transport t);
  (* t3 is an off-round tick (period 2): the tainted view is validated and
     absorbed into last-good with no gossip to contradict it *)
  ignore (Loop.step t ~now:3);
  Alcotest.(check bool) "no alarm on the off-round tick" true
    (Loop.first_fork_tick t = None);
  Alcotest.(check bool) "tainted view absorbed into last-good" false
    (has_target (List.assoc uri t.Loop.point_good));
  (* t4: the gossip round proves the fork one period late *)
  ignore (Loop.step t ~now:4);
  Alcotest.(check (option int)) "fork proven on the next round" (Some 4)
    (Loop.first_fork_tick t);
  (* last-good rolled back to the newest proven-honest state — byte-equal
     to what the victim itself validated before the fork *)
  let rolled = List.assoc uri t.Loop.point_good in
  Alcotest.(check int) "rolled last-good is the honest state"
    0
    (compare (List.map Rpki_core.Vrp.to_string honest)
       (List.map Rpki_core.Vrp.to_string rolled));
  (* and the hold pinned honest data: the suppressed VRP stays
     router-visible through the end of the run *)
  for now = 5 to 8 do
    ignore (Loop.step t ~now)
  done;
  let final = List.nth (Loop.history t) (List.length (Loop.history t) - 1) in
  Alcotest.(check bool) "hold active" true (final.Loop.rtr_holds > 0);
  Alcotest.(check bool) "suppressed VRP pinned at the honest state" true
    (has_target (Rpki_rtr.Session.cache_vrps (Rpki_rtr.Server.cache (Loop.rtr_server t))))

(* The equivocation alarm, driven for real: a hand-built vantage pair where
   the "equivocator" gossips one signed tree head, then is swapped for a
   same-named RP (same deterministic signing key, same log id) synced on a
   universe with one ROA's content changed — a head of the same size with a
   different root, which no consistency proof can justify.  The monitor's
   next pull must raise [Gossip.Inconsistent_heads] naming the peer, not a
   log-reset (the log id never changed) and not a fork (no delta records
   to cross-check). *)
let test_equivocating_head_raises_inconsistent_heads () =
  let endpoint name ip =
    Pub_point.create ~uri:("rsync://" ^ name ^ ".example/log")
      ~addr:(Rpki_ip.V4.addr_of_string_exn ip) ~host_asn:64600
  in
  let m_a = Model.build () in
  let rp_eq = Model.relying_party ~name:"equivocator" m_a in
  let rp_mon = Model.relying_party ~name:"monitor" m_a in
  ignore (Relying_party.sync rp_eq ~now:1 ~universe:m_a.Model.universe ());
  ignore (Relying_party.sync rp_mon ~now:1 ~universe:m_a.Model.universe ());
  let v_eq =
    { Gossip.v_name = "equivocator"; v_rp = rp_eq;
      v_endpoint = endpoint "equivocator" "192.0.2.1";
      v_transport = Transport.create () }
  in
  let v_mon =
    { Gossip.v_name = "monitor"; v_rp = rp_mon;
      v_endpoint = endpoint "monitor" "192.0.2.2";
      v_transport = Transport.create () }
  in
  let g = Gossip.create [ v_eq; v_mon ] in
  ignore (Gossip.round g ~now:1);
  Alcotest.(check (list string)) "clean baseline round" []
    (List.map Gossip.describe_alarm (Gossip.alarms g));
  let m_b = Model.build () in
  ignore (Model.add_fig5_right_roa m_b ~now:0);
  let rp_eq' = Model.relying_party ~name:"equivocator" m_b in
  ignore (Relying_party.sync rp_eq' ~now:2 ~universe:m_b.Model.universe ());
  v_eq.Gossip.v_rp <- rp_eq';
  ignore (Gossip.round g ~now:2);
  let inconsistent =
    List.filter
      (function Gossip.Inconsistent_heads _ -> true | _ -> false)
      (Gossip.alarms g)
  in
  (match inconsistent with
   | [] ->
     Alcotest.fail
       (match Gossip.alarms g with
        | [] -> "equivocating head raised no alarm at all"
        | a :: _ -> "wrong alarm kind: " ^ Gossip.describe_alarm a)
   | Gossip.Inconsistent_heads { ih_peer; ih_seen_by; ih_old; ih_new } :: _ ->
     Alcotest.(check string) "alarm names the equivocator" "equivocator" ih_peer;
     Alcotest.(check string) "seen by the monitor" "monitor" ih_seen_by;
     Alcotest.(check string) "same log id across both heads"
       ih_old.Rpki_transparency.Log.h_log_id ih_new.Rpki_transparency.Log.h_log_id;
     Alcotest.(check bool) "the new head does not extend the old" false
       (ih_old.Rpki_transparency.Log.h_size = ih_new.Rpki_transparency.Log.h_size
        && String.equal ih_old.Rpki_transparency.Log.h_root
             ih_new.Rpki_transparency.Log.h_root)
   | _ -> assert false);
  (* no collateral damage: the honest monitor is not accused *)
  List.iter
    (function
      | Gossip.Inconsistent_heads { ih_peer; _ } ->
        Alcotest.(check string) "only the equivocator is accused" "equivocator" ih_peer
      | _ -> ())
    (Gossip.alarms g)

(* The data plane's work counter on a stealth split-view run.  Tick 1
   computes every prefix's RIB; every later tick recomputes exactly the
   prefixes with an announcement whose classification changed under the
   routers' view (the RTR cache).  With gossip, the evidence hold freezes
   that view, so the fork tick, the hold tick and every tick after recompute
   nothing.  A single vantage lets grace expire: that tick recomputes the
   victim's prefix, and only it. *)
let recomputed_per_tick ~monitors =
  let sv = Loop.split_view_scenario ~monitors ~grace:4 ~gossip_period:1 () in
  let t = sv.Loop.sv_sim in
  let classes () =
    let idx =
      Origin_validation.build
        (Rpki_rtr.Session.cache_vrps (Rpki_rtr.Server.cache (Loop.rtr_server t)))
    in
    List.map
      (fun (a : Propagation.announcement) ->
        (a.Propagation.prefix,
         Origin_validation.classify idx (Route.make a.Propagation.prefix a.Propagation.origin)))
      t.Loop.announcements
  in
  let before = ref [] and counts = ref [] in
  let observe = function
    | Timeline.Split_view.Forked _ -> ()
    | Timeline.Split_view.Tick r ->
      let now = r.Loop.time in
      let after = classes () in
      let changed =
        if now = 1 then List.map fst after
        else
          List.filter_map
            (fun ((p, s), (_, s')) -> if s = s' then None else Some p)
            (List.combine !before after)
      in
      before := after;
      let net = Option.get t.Loop.net in
      counts :=
        (now, net.Data_plane.recomputed, List.length (List.sort_uniq compare changed))
        :: !counts
  in
  Timeline.Split_view.run ~observe ~attack_at:3 ~ticks:10
    ~authority:sv.Loop.sv_model.Model.continental ~target_filename:sv.Loop.sv_target_filename t;
  List.rev !counts

(* The no-attack path: an [attack_at] outside [1..ticks] (0 is the CLI's
   "no attack") runs exactly the plain ticks — same history as stepping
   the same rig by hand, and no fork. *)
let test_attack_outside_run_is_no_attack () =
  let ticks = 6 in
  let rig () = Loop.split_view_scenario ~monitors:2 ~grace:4 ~gossip_period:1 () in
  let plain =
    let t = (rig ()).Loop.sv_sim in
    for now = 1 to ticks do
      ignore (Loop.step t ~now)
    done;
    Loop.history t
  in
  List.iter
    (fun attack_at ->
      let sv = rig () in
      let t = sv.Loop.sv_sim in
      let forked = ref false in
      let observe = function Timeline.Split_view.Forked _ -> forked := true | Tick _ -> () in
      Timeline.Split_view.run ~observe ~attack_at ~ticks
        ~authority:sv.Loop.sv_model.Model.continental
        ~target_filename:sv.Loop.sv_target_filename t;
      Alcotest.(check bool) (Printf.sprintf "attack_at %d: no Forked event" attack_at) false
        !forked;
      Alcotest.(check bool)
        (Printf.sprintf "attack_at %d: history = plain steps" attack_at)
        true
        (Loop.history t = plain))
    [ 0; ticks + 1 ]

let test_recomputed_counts () =
  let check ~monitors ~expect_change_at =
    List.iter
      (fun (now, recomputed, changed) ->
        Alcotest.(check int)
          (Printf.sprintf "monitors %d, t%d: recomputed = changed prefixes" monitors now)
          changed recomputed;
        Alcotest.(check bool)
          (Printf.sprintf "monitors %d, t%d: recomputes iff t1 or t%d" monitors now
             expect_change_at)
          (now = 1 || now = expect_change_at) (recomputed > 0))
      (recomputed_per_tick ~monitors)
  in
  (* held: the fork at t3 and its hold change no route's validity *)
  check ~monitors:2 ~expect_change_at:0;
  (* unheld: the suppressed VRP expires from grace at t7 *)
  check ~monitors:0 ~expect_change_at:7

let () =
  Alcotest.run "split-view"
    [ ("detection",
       [ Alcotest.test_case "gossiping vantages catch the fork before the route dies" `Quick
           test_detected_before_invalid;
         Alcotest.test_case "a single vantage misses the stealthy fork" `Quick
           test_single_vantage_misses_it;
         Alcotest.test_case "an overt fork is locally visible" `Quick
           test_overt_fork_is_locally_visible;
         Alcotest.test_case "lifting the fork heals without residual alarms" `Quick
           test_lift_heals;
         Alcotest.test_case "gossip period trades detection latency" `Quick
           test_gossip_period_trades_latency;
         Alcotest.test_case "a late-proven fork rolls last-good back to honest state"
           `Quick test_late_fork_rolls_back_last_good;
         Alcotest.test_case "the data plane recomputes only changed prefixes" `Quick
           test_recomputed_counts;
         Alcotest.test_case "an attack tick outside the run is no attack" `Quick
           test_attack_outside_run_is_no_attack ]);
      ("equivocation",
       [ Alcotest.test_case "a same-size different-root head raises Inconsistent_heads"
           `Quick test_equivocating_head_raises_inconsistent_heads ]);
      ("false-positives",
       [ Alcotest.test_case "faulty-but-consistent transports never alarm" `Quick
           test_no_false_positives_under_faulty_transport ]) ]
