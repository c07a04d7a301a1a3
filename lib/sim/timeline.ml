(* Attack timelines over the canned Loop scenarios, written once for the
   bench, the CLI and the tests. *)

open Rpki_core
open Rpki_repo
module Rollback = Rpki_attack.Rollback
module Split_view = Rpki_attack.Split_view
module Equivocator = Rpki_attack.Equivocator

module Rollback_restart = struct
  let capture_at = 2
  let revoke_at = 3
  let kill_after = 5

  type event =
    | Revoked of Rtime.t
    | Restarted of Rtime.t * Relying_party.recovery
    | Tick of Loop.tick_record
    | Killed of Rtime.t * Rollback.t

  type outcome = { recovery : Relying_party.recovery; serial_at_kill : int }

  let run ?(observe = ignore) ?fault ~restart_at ~ticks (rig : Loop.restart_rig) =
    if restart_at <= kill_after || restart_at > ticks then
      invalid_arg
        (Printf.sprintf "Timeline.Rollback_restart.run: restart_at %d not in (%d, %d]"
           restart_at kill_after ticks);
    let sim = rig.Loop.rr_sv.Loop.sv_sim and model = rig.Loop.rr_sv.Loop.sv_model in
    let victim = Relying_party.name sim.Loop.rp in
    let atk = Rollback.plan ~authority:model.Model.continental in
    let recovery = ref None and serial_at_kill = ref 0 in
    for now = 1 to ticks do
      if now = revoke_at then begin
        Authority.revoke_roa model.Model.continental ~filename:model.Model.roa_cb_25 ~now;
        observe (Revoked now)
      end;
      (* arm the one-shot disk fault so it fires on the victim's *last*
         pre-crash snapshot write (the primary saves first each tick) *)
      if now = kill_after then Option.iter (Rpki_persist.Disk.inject rig.Loop.rr_disk) fault;
      if now = restart_at then begin
        let r = Loop.restart_vantage sim ~name:victim ~now ~make:rig.Loop.rr_respawn in
        recovery := Some r;
        observe (Restarted (now, r))
      end;
      let record = Loop.step sim ~now in
      observe (Tick record);
      if now = capture_at then Rollback.capture atk ~now;
      if now = kill_after then begin
        serial_at_kill := record.Loop.rtr_serial;
        Loop.kill_vantage sim ~name:victim;
        Rollback.apply atk (Loop.transport sim);
        observe (Killed (now, atk))
      end
    done;
    { recovery = Option.get !recovery; serial_at_kill = !serial_at_kill }
end

module Equivocation = struct
  type event =
    | Armed of Equivocator.t list
    | Forked of Rtime.t * Split_view.t
    | Tick of Loop.tick_record

  type outcome = { equivocators : Equivocator.t list; honest_adjacent : bool }

  let choose (sv : Loop.split_view) ~f =
    Rpki_util.Rng.shuffle (Rpki_util.Rng.create 0xb12a) sv.Loop.sv_monitors
    |> List.filteri (fun i _ -> i < f)

  let run ?(observe = ignore) ~byzantine ~attack_at ~ticks (sv : Loop.split_view) =
    let sim = sv.Loop.sv_sim and model = sv.Loop.sv_model in
    let g =
      match Loop.gossip_mesh sim with
      | Some g -> g
      | None -> invalid_arg "Timeline.Equivocation.run: the rig has no gossip mesh"
    in
    let victim = Relying_party.name sim.Loop.rp in
    let atk =
      Split_view.plan ~authority:model.Model.continental
        ~target_filename:sv.Loop.sv_target_filename ~stealth:Split_view.Stealthy ()
    in
    let eqs =
      List.map
        (fun name ->
          let v = Loop.vantage sim ~name in
          let shadow = Model.relying_party ~name ~asn:(Relying_party.asn v.Gossip.v_rp) model in
          let eq =
            Equivocator.plan ~universe:model.Model.universe ~name ~shadow
              ~fork_to:(String.equal victim) ()
          in
          Equivocator.apply eq g;
          eq)
        byzantine
    in
    observe (Armed eqs);
    for now = 1 to ticks do
      if now = attack_at then begin
        (* the victim's view forks — and every shadow forks with it, so the
           logs served to the victim keep mirroring what the victim sees *)
        Split_view.apply atk (Loop.transport sim);
        List.iter (fun eq -> Split_view.apply atk (Equivocator.shadow_transport eq)) eqs;
        observe (Forked (now, atk))
      end;
      observe (Tick (Loop.step sim ~now))
    done;
    let names = List.map (fun (v : Gossip.vantage) -> v.Gossip.v_name) (Gossip.vantages g) in
    let honest x = not (String.equal x victim || List.mem x byzantine) in
    let honest_edge (a, b) =
      (String.equal a victim && honest b) || (String.equal b victim && honest a)
    in
    let honest_adjacent =
      List.exists
        (fun round ->
          List.exists honest_edge
            (Gossip.Overlay.pulls (Gossip.overlay g) ~seed:(Gossip.overlay_seed g) ~round names))
        (List.init (max 1 (ticks - attack_at + 1)) (fun i -> attack_at + i))
    in
    { equivocators = eqs; honest_adjacent }
end
