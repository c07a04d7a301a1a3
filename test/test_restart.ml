(* End-to-end crash/restart under the rollback adversary (the ISSUE's
   acceptance experiment).

   The adversary captures Continental's honest publication-point state at
   t2, the authority revokes (63.174.25.0/24, AS 17054) at t3, the victim
   vantage is killed right after its t5 snapshot and the frozen t2 state is
   replayed to it on restart at t6.  Nothing is forged — the replay is the
   authority's own old bytes — so only *history* can catch it:

   - with persistence, the restarted victim's restored log contradicts the
     replay (serial regression) and the monitors' persisted memory of its
     serial line raises a gossip Rollback, both within one gossip round of
     the restart, with evidence that re-verifies from scratch; the
     resurrected VRP is frozen off the RTR feed by the evidence hold;
   - without persistence, the same run restarts as a fresh-start oracle:
     no alarm, and the revoked VRP is router-visible again — the attack's
     full yield.

   Plus the two cache-loss paths that must never be conflated: flush_cache
   keeps the in-memory transparency log (PR-3 behavior), while a restart
   without a snapshot starts a visibly new log incarnation and peers raise
   Log_reset. *)

open Rpki_core
open Rpki_repo
open Rpki_sim
open Rpki_ip
module Tlog = Rpki_transparency.Log

let victim = "victim-rp"
let target_prefix = V4.p "63.174.25.0/24"
let restart_at = 6
let ticks = 9

let run ~persist ?fault () =
  let sv = Loop.split_view_scenario ~persist ~grace:0 ~monitors:2 ~gossip_period:1 () in
  let out = Timeline.Rollback_restart.run ?fault ~restart_at ~ticks sv in
  (sv.Loop.sv_sim, out.Timeline.Rollback_restart.recovery)

let vrp_present vrps =
  List.exists (fun (v : Vrp.t) -> V4.Prefix.equal v.Vrp.prefix target_prefix) vrps

let router_sees_replay t =
  vrp_present (Rpki_rtr.Session.cache_vrps (Rpki_rtr.Server.cache (Loop.rtr_server t)))

(* Persistence on: the restored baseline catches the replay within one
   gossip round, with from-scratch-verifiable evidence, and the hold keeps
   the resurrected VRP off the routers. *)
let test_persisted_victim_detects () =
  let t, recovery = run ~persist:true () in
  (match recovery with
  | Relying_party.Recovered { rc_generation; _ } ->
    Alcotest.(check bool) "several generations saved" true (rc_generation >= 1)
  | Relying_party.Recovered_fresh why ->
    Alcotest.fail ("fault-free snapshot failed to restore: "
                   ^ Relying_party.fresh_reason_to_string why));
  let detect =
    match Loop.first_rollback_tick t with
    | Some tk -> tk
    | None -> Alcotest.fail "persisted victim missed the rollback"
  in
  Alcotest.(check bool)
    (Printf.sprintf "detected (t%d) within one gossip round of restart (t%d)" detect
       restart_at)
    true
    (detect <= restart_at + 1);
  (* the local signal: the restored log itself contradicts the replay *)
  let local =
    List.exists (fun (r : Loop.tick_record) -> r.Loop.regressions <> []) (Loop.history t)
  in
  Alcotest.(check bool) "own restored log raised a regression" true local;
  (* the gossip signal, and its evidence re-verified from scratch *)
  let g = Option.get (Loop.gossip_mesh t) in
  let rollbacks = Gossip.rollbacks g in
  Alcotest.(check bool) "gossip Rollback raised" true (rollbacks <> []);
  let key_of = Gossip.key_of g in
  List.iter
    (fun a ->
      Alcotest.(check bool) "rollback evidence verifies from scratch" true
        (Gossip.verify_fork ~key_of a);
      (* and stays verifiable through a portable DER bundle *)
      match Evidence.export ~key_of a with
      | Error why -> Alcotest.fail ("evidence export failed: " ^ why)
      | Ok bundle -> (
        match Evidence.verify bundle with
        | Ok _ -> ()
        | Error why -> Alcotest.fail ("exported bundle does not verify: " ^ why)))
    rollbacks;
  (* detection reached the routers: the resurrected VRP is not served *)
  Alcotest.(check bool) "replayed VRP not router-visible" false (router_sees_replay t);
  (match List.rev (Loop.history t) with
  | last :: _ ->
    Alcotest.(check bool) "evidence hold active at the end" true (last.Loop.rtr_holds > 0)
  | [] -> Alcotest.fail "no history")

(* Persistence off: the identical run restarts with no baseline — the
   rollback is silent and the revoked VRP is back in the routers. *)
let test_fresh_start_misses () =
  let t, recovery = run ~persist:false () in
  (match recovery with
  | Relying_party.Recovered_fresh Relying_party.No_snapshot -> ()
  | r -> Alcotest.fail ("expected a fresh start, got " ^ Relying_party.recovery_to_string r));
  Alcotest.(check bool) "no rollback detected" true (Loop.first_rollback_tick t = None);
  List.iter
    (fun (r : Loop.tick_record) ->
      Alcotest.(check (list Alcotest.reject)) "no local regressions" [] r.Loop.regressions)
    (Loop.history t);
  Alcotest.(check bool) "replayed VRP router-visible (attack yield)" true
    (router_sees_replay t)

(* Every injected disk fault degrades the restart to an explicit
   Recovered_fresh with a typed reason — never a crash, never a silently
   accepted snapshot (and, with a poisoned baseline, never a detection
   claim built on it). *)
let test_disk_faults_explicit () =
  List.iter
    (fun fault ->
      let _t, recovery = run ~persist:true ~fault () in
      match (fault, recovery) with
      | _, Relying_party.Recovered _ ->
        Alcotest.fail
          (Rpki_persist.Disk.fault_to_string fault
          ^ ": corrupted snapshot restored as good")
      | Rpki_persist.Disk.Drop_rename, Relying_party.Recovered_fresh reason -> (
        match reason with
        | Relying_party.Snapshot_stale _ -> ()
        | r ->
          Alcotest.fail
            ("dropped rename should read as a stale snapshot, got "
            ^ Relying_party.fresh_reason_to_string r))
      | _, Relying_party.Recovered_fresh reason -> (
        match reason with
        | Relying_party.Snapshot_corrupt _ | Relying_party.Log_inconsistent _ -> ()
        | r ->
          Alcotest.fail
            (Rpki_persist.Disk.fault_to_string fault
            ^ ": expected an explicit corruption, got "
            ^ Relying_party.fresh_reason_to_string r)))
    [ Rpki_persist.Disk.Torn_write; Rpki_persist.Disk.Partial_flush;
      Rpki_persist.Disk.Bit_flip 12345; Rpki_persist.Disk.Drop_rename ]

(* flush_cache is cache loss, not history loss: the in-memory transparency
   log (and the log incarnation) survive the wipe.  A restart without a
   snapshot is the opposite — a new incarnation whose peers notice. *)
let test_flush_cache_keeps_history () =
  let m = Model.build () in
  let rp = Model.relying_party ~name:"flush-rp" m in
  ignore (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ());
  ignore (Relying_party.sync rp ~now:2 ~universe:m.Model.universe ());
  let size = Tlog.size (Relying_party.transparency_log rp) in
  let epoch = Relying_party.log_epoch rp in
  Alcotest.(check bool) "log populated before flush" true (size > 0);
  Relying_party.flush_cache rp;
  Alcotest.(check int) "flush keeps the transparency log" size
    (Tlog.size (Relying_party.transparency_log rp));
  Alcotest.(check int) "flush keeps the log incarnation" epoch
    (Relying_party.log_epoch rp);
  (* revalidating the unchanged universe from scratch appends nothing new:
     the rebuilt observations dedup against the surviving history *)
  ignore (Relying_party.sync rp ~now:3 ~universe:m.Model.universe ());
  Alcotest.(check int) "resync after flush appends nothing" size
    (Tlog.size (Relying_party.transparency_log rp))

let test_restart_without_snapshot_is_new_incarnation () =
  let t, recovery = run ~persist:false () in
  (match recovery with
  | Relying_party.Recovered_fresh Relying_party.No_snapshot -> ()
  | r -> Alcotest.fail ("expected Recovered_fresh, got " ^ Relying_party.recovery_to_string r));
  let rp = (Loop.vantage t ~name:victim).Gossip.v_rp in
  Alcotest.(check bool) "restart bumped the log incarnation" true
    (Relying_party.log_epoch rp > 0);
  (* peers keep their memory of the old incarnation and flag the reset *)
  let g = Option.get (Loop.gossip_mesh t) in
  let resets =
    List.filter (function Gossip.Log_reset _ -> true | _ -> false) (Gossip.alarms g)
  in
  Alcotest.(check bool) "peers raised Log_reset after the fresh restart" true
    (resets <> [])

let () =
  Alcotest.run "restart"
    [ ("rollback",
       [ Alcotest.test_case "persisted victim detects the replay" `Quick
           test_persisted_victim_detects;
         Alcotest.test_case "fresh-start victim misses it" `Quick test_fresh_start_misses;
         Alcotest.test_case "disk faults degrade explicitly" `Quick
           test_disk_faults_explicit ]);
      ("cache-loss-vs-restart",
       [ Alcotest.test_case "flush_cache keeps the log" `Quick
           test_flush_cache_keeps_history;
         Alcotest.test_case "restart without snapshot is a new incarnation" `Quick
           test_restart_without_snapshot_is_new_incarnation ]) ]
