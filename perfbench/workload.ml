(* The three benchmark workloads.  Each builds its world and every per-tick
   input from the seed alone, drives [Rpki_sim.Loop] as a closed loop (one
   simulator, one process, each tick starting when the previous returns,
   [rtr_domains = 1]) and checks the program's outputs after every tick.

   - world-static: read-mostly.  A generated 2000-AS world, victim RP plus 3
     degree-placed monitors gossiping every tick, a stealth split-view fork
     at tick [fork_tick], no churn.  The data plane dominates the tick and
     sync is a pure memo replay, so a data-plane change shows its full effect
     here and an RP or crypto change none.
   - vantage-gossip: the canned Section 6 model with 15 monitors (16
     vantages, a full-mesh round of 240 pulls per tick), ARIN's subtree
     re-signed every tick, a stealth fork at [fork_tick].  Gossip dominates
     and its cost grows with log length.
   - roa-churn: write-heavy.  A generated 1000-AS world with persistence,
     256 RTR sessions and compaction every 64 ticks; every tick issues 4 ROAs
     and revokes those issued [roa_lifetime] ticks earlier, and the primary
     is killed and restarted from its store every 50 ticks.  The only
     workload with RTR sessions, persistence and changing VRPs. *)

open Rpki_core
open Rpki_repo
module Loop = Rpki_sim.Loop
module World = Rpki_world.Synthesis
module Server = Rpki_rtr.Server

type scale = Full | Smoke

(* Lets a tick loop wrap input-generation work that belongs to a layer (a
   restart's snapshot restore) in a span. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }

type rig = {
  sim : Loop.t;
  fork_at : int option;            (* tick the stealth fork is injected *)
  grace : int;                     (* the victim's grace window, in ticks *)
  sessions : Server.session list;  (* attached RTR router sessions *)
  inputs : span -> now:int -> string list;
      (* generate tick [now]'s inputs before [Loop.step]; returns failed
         output checks of input-side operations (restarts) *)
  check : now:int -> Loop.tick_record -> string list;
      (* workload-specific output checks after the tick *)
  describe : string;               (* the generated world, in one line *)
}

(* [prepare scale ~seed] does the seeded input work (e.g. fixing the world
   spec) and returns the program's set-up, which [main] times: each call
   builds a fresh rig from the same inputs. *)
type t = { name : string; prepare : scale -> seed:int -> unit -> rig }

let fork_tick = 3
let primary = "victim-rp"

(* Sizes of the spanning-tree subtrees [Synthesis] hangs every AS in (under
   its provider with the biggest customer cone), for the transit ASes only,
   largest first.  [Synthesis] gives a transit a CA when its subtree holds
   at least [ca_min_cone] ASes. *)
let transit_subtrees g =
  let module G = Rpki_bgp.As_graph in
  let children = Hashtbl.create 256 in
  List.iter
    (fun asn ->
      match Rpki_bgp.Topology.providers (G.topology g) asn with
      | [] -> ()
      | p0 :: ps ->
        let heavier p q =
          let cp = G.cone_size g p and cq = G.cone_size g q in
          if cp > cq || (cp = cq && p < q) then p else q
        in
        let p = List.fold_left heavier p0 ps in
        Hashtbl.replace children p (asn :: Option.value ~default:[] (Hashtbl.find_opt children p)))
    (G.asns g);
  let rec size a =
    List.fold_left (fun acc c -> acc + size c) 1
      (Option.value ~default:[] (Hashtbl.find_opt children a))
  in
  G.asns g
  |> List.filter (fun a -> G.role g a = G.Transit)
  |> List.map size
  |> List.sort (fun a b -> compare b a)

(* A generated world with about [cas] transit CAs whatever the seed: the CA
   threshold is set to the [cas]-th largest transit subtree, so the world
   has [cas] transit CAs plus one for each further subtree of that same
   size (over seeds 1-30: 32-35 for 32, 20-23 for 20).  The CA count sets
   how many prefixes are announced (one per repository host), hence the
   data plane's RIB count, and it varies by about a third between graph
   seeds at a fixed threshold; tying it to [cas] keeps the seed from moving
   the tick cost.  Issuance windows are a year of ticks, so nothing expires
   or needs re-signing during a run unless the workload churns it.  This
   is input work: it runs before set-up is timed.  Returns the spec and
   the transit CA count it should give. *)
let world_spec ~ases ~cas ~seed =
  let graph = { Rpki_bgp.As_graph.default_spec with Rpki_bgp.As_graph.ases; seed } in
  let subtrees = transit_subtrees (Rpki_bgp.As_graph.generate graph) in
  let threshold = List.nth subtrees (min cas (List.length subtrees) - 1) in
  ( { World.default_spec with
      World.graph;
      ca_min_cone = threshold;
      validity = Some Rtime.year;
      refresh_interval = Some Rtime.year },
    List.length (List.filter (fun s -> s >= threshold) subtrees) )

exception Bad_world of string

(* [transit_subtrees] mirrors [Synthesis]'s CA rule; if the rule changes,
   the generated world stops carrying the transit CAs [world_spec] fixed
   and the run fails here instead of quietly measuring a different world. *)
let check_cas w ~cas =
  let g = World.graph w in
  let n =
    List.length
      (List.filter
         (fun (a, _) -> Rpki_bgp.As_graph.role g a = Rpki_bgp.As_graph.Transit)
         (World.cas w))
  in
  if n <> cas then
    raise (Bad_world (Printf.sprintf "generated world has %d transit CAs, not %d" n cas))

let no_check ~now:_ _ = []

let world_static scale ~seed =
  let ases, cas = match scale with Full -> (2000, 32) | Smoke -> (300, 4) in
  let world, cas = world_spec ~ases ~cas ~seed in
  fun () ->
    let rig =
      Loop.world_scenario ~monitors:3 ~placement:Rpki_world.Placement.By_degree
        ~gossip_period:1 ~world ()
    in
    check_cas rig.Loop.wr_world ~cas;
    let sim = rig.Loop.wr_sim in
    let atk =
      Rpki_attack.Split_view.plan ~authority:rig.Loop.wr_target_authority
        ~target_filename:rig.Loop.wr_target_filename ()
    in
    let inputs _ ~now =
      if now = fork_tick then Rpki_attack.Split_view.apply atk (Loop.transport sim);
      []
    in
    { sim; fork_at = Some fork_tick; grace = 4; sessions = []; inputs; check = no_check;
      describe = World.summary rig.Loop.wr_world }

(* The Section 6 model is fixed, so the seed picks the fork: which of
   Continental's 5 ROAs it suppresses and which of the vantages it is
   served to, 5 x 16 (Smoke: 5 x 4) distinct inputs. *)
let vantage_gossip scale ~seed =
  let monitors = match scale with Full -> 15 | Smoke -> 3 in
  let pick l k = List.nth l (k mod List.length l) in
  fun () ->
    let sv = Loop.split_view_scenario ~monitors ~refresh_interval:1 () in
    let m = sv.Loop.sv_model in
    let sim = sv.Loop.sv_sim in
    let target =
      pick
        [ m.Model.roa_target20; m.Model.roa_target22; m.Model.roa_cb_25; m.Model.roa_cb_26;
          m.Model.roa_cb_28 ]
        (abs seed)
    in
    let forked = pick (Loop.vantage_names sim) (abs seed / 5) in
    let atk =
      Rpki_attack.Split_view.plan ~authority:m.Model.continental ~target_filename:target ()
    in
    let inputs _ ~now =
      Authority.maintain m.Model.arin ~now;
      if now = fork_tick then
        Rpki_attack.Split_view.apply atk (Loop.vantage_transport sim ~name:forked);
      []
    in
    { sim; fork_at = Some fork_tick; grace = 4; sessions = []; inputs; check = no_check;
      describe =
        Printf.sprintf "section6 model, %d vantages, fork suppresses %s at %s" (monitors + 1)
          target forked }

(* --- roa-churn ---------------------------------------------------------- *)

let roa_lifetime = 8
let roas_per_tick = 4

type live_roa = { issued : int; ca : Authority.t; file : string; vrps : Vrp.t list }

let roa_churn scale ~seed =
  let ases, cas, sessions, restart_every, compact_every =
    match scale with Full -> (1000, 20, 256, 50, 64) | Smoke -> (200, 3, 8, 6, 4)
  in
  let world, cas = world_spec ~ases ~cas ~seed in
  fun () ->
    let rig = Loop.world_scenario ~monitors:0 ~persist:true ~world () in
    check_cas rig.Loop.wr_world ~cas;
    let sim = rig.Loop.wr_sim in
    sim.Loop.compact_every <- compact_every;
    let grace = 4 in
    let srv = Loop.rtr_server sim in
    let sessions = List.init sessions (fun _ -> Server.attach srv) in
    let w = rig.Loop.wr_world in
    let respawn = Option.get rig.Loop.wr_respawn in
    (* ROAs go to ASes that announce nothing and hold no ROA of their own, so
       every tick publishes a real VRP delta without moving any route *)
    let pool =
      lazy
        (let announced =
           List.map (fun (a : Rpki_bgp.Propagation.announcement) -> a.Rpki_bgp.Propagation.origin)
             (World.base_announcements w)
         in
         Rpki_bgp.As_graph.asns (World.graph w)
         |> List.filter (fun a -> (not (List.mem a announced)) && World.roa_of w a = None)
         |> Array.of_list)
    in
    let rng = Rpki_util.Rng.create (seed lxor 0x0c4a27) in
    let live : (int, live_roa) Hashtbl.t = Hashtbl.create 64 in
    let revoked : (Vrp.t, int) Hashtbl.t = Hashtbl.create 256 in
    let rec fresh_asn () =
      let pool = Lazy.force pool in
      let a = pool.(Rpki_util.Rng.int rng (Array.length pool)) in
      if Hashtbl.mem live a then fresh_asn () else a
    in
    let inputs sp ~now =
      let due =
        Hashtbl.fold
          (fun a l acc -> if now - l.issued >= roa_lifetime then (a, l) :: acc else acc)
          live []
      in
      List.iter
        (fun (a, l) ->
          Authority.revoke_roa l.ca ~filename:l.file ~now;
          List.iter (fun v -> Hashtbl.replace revoked v now) l.vrps;
          Hashtbl.remove live a)
        (List.sort (fun (a, _) (b, _) -> compare a b) due);
      for _ = 1 to roas_per_tick do
        let a = fresh_asn () in
        let ca = World.ca_of w a in
        let file, roa =
          Authority.issue_simple_roa ca ~asid:a ~prefix:(World.prefix_of w a) ~now ()
        in
        Hashtbl.replace live a { issued = now; ca; file; vrps = Vrp.of_roa roa }
      done;
      if now mod restart_every = 0 then begin
        Loop.kill_vantage sim ~name:primary;
        []
      end
      else if now mod restart_every = 2 && now > restart_every then
        match
          sp.span "persist.restore" (fun () ->
              Loop.restart_vantage sim ~name:primary ~now ~make:respawn)
        with
        | Rpki_repo.Relying_party.Recovered _ -> []
        | r ->
          [ Printf.sprintf "restart at t%d: %s" now (Rpki_repo.Relying_party.recovery_to_string r) ]
      else []
    in
    let resets () = List.fold_left (fun acc s -> acc + Server.session_resets s) 0 sessions in
    let baseline_resets = ref None in
    let check ~now _ =
      let fails = ref [] in
      let fail s = fails := s :: !fails in
      (* sessions are seeded by the first flush; from then on a restart that
         rehydrated the serial line must not cost any router a reset *)
      (match !baseline_resets with
      | None -> baseline_resets := Some (resets ())
      | Some b -> if resets () <> b then fail (Printf.sprintf "t%d: RTR session reset" now));
      (* while the primary runs, the router-visible VRPs hold every live ROA
         and no ROA revoked at least [grace] ticks ago (grace keeps a vanished
         VRP for that long) *)
      if Loop.vantage_alive sim ~name:primary then begin
        let cache = Hashtbl.create 512 in
        List.iter
          (fun v -> Hashtbl.replace cache v ())
          (Rpki_rtr.Session.cache_vrps (Server.cache srv));
        let live_vrps = Hashtbl.create 64 in
        Hashtbl.iter
          (fun _ l ->
            List.iter
              (fun v ->
                Hashtbl.replace live_vrps v ();
                if not (Hashtbl.mem cache v) then
                  fail (Printf.sprintf "t%d: live ROA %s missing" now (Vrp.to_string v)))
              l.vrps)
          live;
        Hashtbl.iter
          (fun v at ->
            if now - at >= grace && Hashtbl.mem cache v && not (Hashtbl.mem live_vrps v) then
              fail (Printf.sprintf "t%d: revoked ROA %s still served" now (Vrp.to_string v)))
          revoked
      end;
      !fails
    in
    { sim; fork_at = None; grace; sessions; inputs; check; describe = World.summary w }

let all =
  [ { name = "world-static"; prepare = world_static };
    { name = "vantage-gossip"; prepare = vantage_gossip };
    { name = "roa-churn"; prepare = roa_churn } ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* --- output checks shared by every workload ----------------------------- *)

let key_of (sim : Loop.t) vname =
  List.find_map
    (fun (v : Gossip.vantage) ->
      if String.equal v.Gossip.v_name vname then
        Some (Relying_party.transparency_key v.Gossip.v_rp)
      else None)
    sim.Loop.vantages

(* A checker for one run: after each tick, the RTR plane is converged and
   every session holds the cache's VRPs; on fork workloads, no fork is
   alarmed before the injection, the fork is alarmed within the grace
   window, and every fork alarm's evidence verifies under the vantages' own
   keys.  [detected ()] is the first tick a fork was alarmed. *)
let checker rig =
  let fork_seen = ref None in
  let check ~now (r : Loop.tick_record) =
    let fails = ref (rig.check ~now r) in
    let fail s = fails := s :: !fails in
    let srv = Loop.rtr_server rig.sim in
    if not (Server.all_synced srv) then fail (Printf.sprintf "t%d: RTR not all synced" now);
    (match rig.sessions with
    | [] -> ()
    | sessions ->
      let cache = Rpki_rtr.Session.cache_vrps (Server.cache srv) in
      let sorted = lazy (List.sort_uniq Vrp.compare cache) in
      let same vrps =
        List.equal Vrp.equal cache vrps
        || List.equal Vrp.equal (Lazy.force sorted) (List.sort_uniq Vrp.compare vrps)
      in
      List.iter
        (fun s ->
          if not (same (Server.session_vrps s)) then
            fail (Printf.sprintf "t%d: session VRPs differ from the cache" now))
        sessions);
    (match rig.fork_at with
    | None -> ()
    | Some k ->
      let forks =
        match r.Loop.gossip_report with
        | Some rep -> List.filter Gossip.is_fork rep.Gossip.r_alarms
        | None -> []
      in
      if forks <> [] && now < k then fail (Printf.sprintf "t%d: fork alarm before injection" now);
      List.iter
        (fun a ->
          if not (Gossip.verify_fork ~key_of:(key_of rig.sim) a) then
            fail (Printf.sprintf "t%d: fork evidence does not verify" now))
        forks;
      if forks <> [] && !fork_seen = None then fork_seen := Some now;
      if !fork_seen = None && now - k >= rig.grace - 1 then
        fail (Printf.sprintf "t%d: fork injected at t%d not detected within grace %d" now k
                rig.grace));
    List.rev !fails
  in
  (check, fun () -> !fork_seen)

(* --- the tick record, canonically --------------------------------------- *)

(* Every field of a tick record as text, so two runs' records can be
   compared exactly (the record holds no closures, but spelling it out keeps
   the comparison independent of physical sharing). *)
let record_repr (r : Loop.tick_record) =
  let b = Buffer.create 256 in
  let add fmt = Printf.bprintf b fmt in
  let vrps l = String.concat "," (List.map Vrp.to_string l) in
  add "t=%d vrps=%d issues=%d ff=[%s] probes=[%s] +[%s] -[%s] serial=%d reused=%d reval=%d"
    r.Loop.time r.Loop.vrp_count r.Loop.issue_count
    (String.concat "," r.Loop.fetch_failures)
    (String.concat ","
       (List.map (fun (l, ok) -> Printf.sprintf "%s:%b" l ok) r.Loop.probe_results))
    (vrps r.Loop.vrp_diff.Vrp.added) (vrps r.Loop.vrp_diff.Vrp.removed) r.Loop.rtr_serial
    r.Loop.points_reused r.Loop.points_revalidated;
  add " el=%d age=%d budget=%b holds=%d sig=%d saved=%d unsafe=%d" r.Loop.sync_elapsed
    r.Loop.max_data_age r.Loop.budget_exhausted r.Loop.rtr_holds r.Loop.sig_checks
    r.Loop.sig_saved r.Loop.unsafe_count;
  List.iter
    (fun rg -> add " rg=%s" (Relying_party.regression_to_string rg))
    r.Loop.regressions;
  (match r.Loop.gossip_report with
  | None -> add " gossip=none"
  | Some rep ->
    add " gossip@%d pulls=%d skipped=%d sths=%d ver=%d vsaved=%d built=%d reused=%d pb=%d el=%d"
      rep.Gossip.r_at rep.Gossip.r_pulls rep.Gossip.r_skipped rep.Gossip.r_sths_signed
      rep.Gossip.r_verifies rep.Gossip.r_verifies_saved rep.Gossip.r_proofs_built
      rep.Gossip.r_proofs_reused rep.Gossip.r_proof_bytes rep.Gossip.r_elapsed;
    List.iter
      (fun (e : Gossip.exchange) ->
        add " ex=%s>%s:%s:%d:%d" e.Gossip.ex_from e.Gossip.ex_to
          (match e.Gossip.ex_outcome with
          | `Ok n -> string_of_int n
          | `Stalled -> "stalled"
          | `Unroutable -> "unroutable")
          e.Gossip.ex_elapsed e.Gossip.ex_proof_bytes)
      rep.Gossip.r_exchanges;
    List.iter (fun a -> add " alarm=%s" (Gossip.describe_alarm a)) rep.Gossip.r_alarms);
  Buffer.contents b
