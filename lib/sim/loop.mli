(** Closing the loop (the paper's Section 6): RPKI -> route validity ->
    BGP -> repository reachability -> RPKI.

    A discrete-time simulator in which, each tick, the relying party syncs
    the RPKI {e over the data plane its previous sync produced}: a
    publication point can be fetched only if the RP currently has a working
    route to the repository's address.  A transient fault that invalidates
    the route to a repository therefore prevents the fetch that would repair
    it — Side Effect 7's persistent-failure mechanism.

    Sync is incremental across ticks: the relying party carries its
    origin-validation index forward, and each tick's VRP diff feeds an RTR
    cache as a serial-numbered delta. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp

type probe = {
  label : string;
  addr : Rpki_ip.Addr.V4.t;
  expected_origin : int;
}

type t = {
  universe : Universe.t;
  topo : Topology.t;
  policy : Policy.t;                         (** uniform at every AS *)
  mutable rp : Relying_party.t;              (** mutable: {!restart_vantage}
                                                 replaces the instance *)
  rtr : Rpki_rtr.Server.t;                   (** the RTR serving plane: fed one
                                                 delta per changed tick, flushed
                                                 (one batched notify) at tick
                                                 end *)
  mutable rtr_domains : int;                 (** Domains for the flush fan-out *)
  announcements : Propagation.announcement list;
  probes : probe list;
  transport : Transport.t;                   (** priced off the previous tick's
                                                 data plane *)
  mutable fetch_policy : Relying_party.fetch_policy;
  mutable net : Data_plane.network option;
  mutable history : tick_record list;
  mutable vantages : Gossip.vantage list;    (** gossip mesh members *)
  mutable gossip : Gossip.t option;
  mutable gossip_period : int;
  mutable disk : Rpki_persist.Disk.t option;
  mutable stores : (string * Rpki_persist.Store.t) list;
  mutable dead : string list;
  mutable epochs : (string * int) list;
  mutable point_good : (string * Vrp.t list) list;
  mutable held_uris : (string * Rpki_ip.V4.Prefix.t list) list;
  mutable valcache : Valcache.t option;
      (** the shared validation plane all vantages sync through (on by
          default); [None] = independent per-vantage validation.  Results
          are identical either way — only crypto cost differs. *)
  mutable valcache_evict : bool;
      (** run {!Valcache.end_tick} at every tick end (on by default),
          dropping window-expired entries so residency stays flat under
          churn.  Pure memo — results are identical with it off. *)
  mutable compact_every : int;
      (** fold every persistence chain into its base snapshot every this
          many ticks ({!Relying_party.compact_store}); 0 (default) = never *)
  mutable save_full : bool;
      (** force O(history) full snapshots instead of O(delta) segments —
          the pre-segmentation baseline the soak bench compares against *)
  mutable keep_history : bool;
      (** accumulate tick records in [history] (on by default); long soaks
          turn this off so the run's memory stays flat *)
}

and tick_record = {
  time : Rtime.t;
  vrp_count : int;
  issue_count : int;
  fetch_failures : string list;
  probe_results : (string * bool) list;
  vrp_diff : Vrp.diff;          (** change relative to the previous tick *)
  rtr_serial : int;             (** RTR cache serial after this tick *)
  points_reused : int;          (** publication points replayed from memo *)
  points_revalidated : int;     (** publication points validated from scratch *)
  sync_elapsed : int;           (** transport time the sync spent *)
  max_data_age : int;           (** worst staleness the sync accepted *)
  budget_exhausted : bool;      (** the fetch budget ran out this tick *)
  gossip_report : Gossip.round_report option;
      (** the gossip round run this tick; [None] when gossip is disabled or
          off-period this tick *)
  regressions : Relying_party.regression list;
      (** the primary's own-history contradictions this tick — the local
          (no gossip needed) rollback signal, possible only with a restored
          log *)
  rtr_holds : int;              (** evidence-triggered holds active on the
                                    RTR cache after this tick *)
  sig_checks : int;             (** RSA verifications executed during this
                                    tick's sync phase, across all vantages *)
  sig_saved : int;              (** verifications answered by the shared
                                    validation plane's verdict memo this
                                    tick; 0 when it is disabled *)
  unsafe_count : int;           (** unsafe VRPs the primary's sync reported
                                    this tick (see
                                    {!Relying_party.unsafe_policy}); also
                                    annotated on the RTR serving plane *)
}

val create :
  universe:Universe.t ->
  topo:Topology.t ->
  policy:Policy.t ->
  rp:Relying_party.t ->
  announcements:Propagation.announcement list ->
  probes:probe list ->
  t

(** {2 Configuration}

    There is one way to configure a loop: the scenario builders' labelled
    arguments set it up (vantages, gossip mesh, persistence), and the
    mutable fields of {!t} above tune a built loop directly — for example
    [sim.fetch_policy <- p] or [sim.compact_every <- 64].  A field set
    between ticks takes effect on the next {!step}. *)

val rtr_server : t -> Rpki_rtr.Server.t
(** The RTR serving plane fed by the loop: attach router sessions with
    {!Rpki_rtr.Server.attach}; every {!step} ends with one batched
    {!Rpki_rtr.Server.flush} (publish + any holds coalesce into a single
    notify), run on [rtr_domains] Domains. *)

val transport : t -> Transport.t
(** The loop's transport.  Its latency oracle is wired to the previous
    tick's data plane (one transport tick per forwarding hop; no valid
    route — or traffic delivered to a hijacker — is no
    route).  Adversaries ({!Rpki_attack.Stall}) and operators inject
    faults here. *)

val valcache : t -> Valcache.t option
(** The loop's shared validation plane, for statistics
    ({!Valcache.stats} / {!Valcache.tick_stats}). *)

val step : t -> now:Rtime.t -> tick_record
(** One tick: refresh mirrors, sync the RP over the previous data plane
    (incrementally), push the VRP diff into the RTR cache, recompute the
    data plane, run the probes. *)

val history : t -> tick_record list
val pp_record : Format.formatter -> tick_record -> unit

(** {2 Vantages and gossip}

    A loop can run additional relying-party {e vantages} alongside its
    primary RP: each extra vantage syncs the same universe every tick over
    its own transport, priced off the same previous-tick data plane but
    from its own AS.  The scenario builders register the vantages and build
    a {!Gossip} mesh over them; every [gossip_period] ticks a round runs
    {e after} routing converges (so a partitioned vantage also cannot
    gossip) and its report — including any split-view {!Gossip.alarm.Fork}
    alarms — lands on that tick's record. *)

val vantage_names : t -> string list

val vantage : t -> name:string -> Gossip.vantage

val vantage_transport : t -> name:string -> Transport.t
(** The named vantage's transport — where adversaries install per-vantage
    faults or {!Transport.set_view} forks. *)

val gossip_mesh : t -> Gossip.t option

val first_fork_tick : t -> Rtime.t option
(** The earliest tick whose gossip round raised a {!Gossip.alarm.Fork} —
    the moment a split view became detected, for detection-latency
    measurements. *)

val first_rollback_tick : t -> Rtime.t option
(** The earliest tick on which a served rollback became detected — by the
    primary's own restored history (a non-empty [regressions] list) or by a
    gossip {!Gossip.alarm.Rollback} — for detection-latency measurements
    against a restart adversary. *)

(** {2 Persistence, crash and restart}

    With a [disk] set (the scenario builders' [~persist:true]), every live
    vantage snapshots its durable
    state ({!Relying_party.save}) at the end of each tick, to a
    per-vantage generation-numbered store on a shared simulated disk —
    where experiments arm {!Rpki_persist.Disk.inject} faults.
    {!kill_vantage} stops a vantage mid-run (no sync, no gossip, no
    saves); {!restart_vantage} brings it back as a new relying-party
    instance whose only link to its past is whatever {!Relying_party.restore}
    can verifiably recover.  The primary's RTR cache continues its serial
    line on a good restore and takes a visible reset otherwise.

    Detected contradictions — a local {!Relying_party.regression} or
    verified gossip fork/rollback evidence — freeze the affected prefixes
    on the RTR cache ({!Rpki_rtr.Session.hold}) at the last VRPs validated
    before the contradiction was served. *)

val persistence_enabled : t -> bool

val vantage_store : t -> name:string -> Rpki_persist.Store.t
(** The named vantage's snapshot store (created on first use).  Raises
    [Invalid_argument] when persistence is not enabled. *)

val vantage_alive : t -> name:string -> bool

val kill_vantage : t -> name:string -> unit
(** Crash a vantage (the primary included): from now it neither syncs, nor
    gossips, nor saves; peers see its endpoint go silent.  Process state
    dies with it — only its snapshot store survives. *)

val restart_vantage :
  t ->
  name:string ->
  now:Rtime.t ->
  make:(log_epoch:int -> Relying_party.t) ->
  Relying_party.recovery
(** Restart a killed vantage as a fresh relying-party instance built by
    [make] (same name required).  [make] receives the pessimistic next log
    epoch; a verified snapshot restore overrides it with the persisted
    epoch, so only a failed restore starts a visibly new log incarnation.
    On restore the gossip mesh reseeds the vantage's consistency baselines
    from its persisted peer heads; otherwise its gossip memory starts
    empty (and peers will raise {!Gossip.alarm.Log_reset}).  Raises
    [Invalid_argument] unless the vantage is down. *)

(** {2 The canned Section 6 scenarios}

    {!section6_scenario} and {!split_view_scenario} share one Figure 5
    (right) fixture: model, topology, announcements and probes. *)

type section6 = {
  sim : t;
  model : Model.t;
  continental_repo : Pub_point.t;
  target_filename : string; (** the ROA whose corruption starts the spiral *)
}

val section6_scenario :
  ?policy:Policy.t ->
  ?grace:int ->
  ?mirrored:bool ->
  ?rrdp:bool ->
  ?validity:int ->
  ?refresh_interval:int ->
  unit ->
  section6
(** Figure 5 (right) validity, the small topology with every repository host
    attached, Continental hosting its own repository inside its certified
    /20.  [mirrored] registers a mirror of Continental's repository inside
    Sprint's address space (the draft-multiple-publication-points
    mitigation); [rrdp] registers an RRDP delta service for it, endpoint
    likewise in Sprint's space; [grace] enables the Suspenders-style hold on
    the RP.  [validity] / [refresh_interval] shorten every authority's
    issuance windows (see {!Model.build}) so stall experiments can age a
    starved cache to expiry within a few ticks. *)

val run_section6 :
  ?policy:Policy.t ->
  ?flush_cache_at:int option ->
  ?grace:int ->
  ?mirrored:bool ->
  unit ->
  section6 * tick_record list
(** The Side Effect 7 timeline: two healthy ticks, a one-tick corruption of
    the critical ROA, repair, then observation through tick 7. *)

(** {2 The canned split-view scenario} *)

type split_view = {
  sv_sim : t;
  sv_model : Model.t;
  sv_target_filename : string;  (** the ROA the fork suppresses
                                    ([roa_target20], guarding the victim
                                    route 63.174.16.0/20 AS 17054) *)
  sv_monitors : string list;    (** registered monitor vantage names *)
  sv_respawn : log_epoch:int -> Relying_party.t;
      (** rebuilds the victim for {!restart_vantage}: same name, AS, trust
          anchor and grace, so a restart changes only what survived on
          disk (nothing, without [persist]) *)
}

val max_monitors : int
(** The most monitors {!split_view_scenario} can place (725): synthesized
    ARIN monitors must fit in ARIN's single /24. *)

val split_view_scenario :
  ?grace:int ->
  ?monitors:int ->
  ?gossip_period:int ->
  ?overlay:Gossip.Overlay.spec ->
  ?overlay_seed:int ->
  ?validity:int ->
  ?refresh_interval:int ->
  ?valcache:bool ->
  ?persist:bool ->
  unit ->
  split_view
(** The Section 6 setting rigged for split-view detection: the victim
    relying party ("victim-rp", at the source AS, running [grace] — default
    4 — and {!Relying_party.resilient_policy}, routing drop-invalid)
    plus [monitors] (default 2) monitor vantages at the repository-hosting
    ASes (Sprint, ETB, ARIN's host), all gossiping every [gossip_period]
    ticks over [overlay] (default full mesh — see {!Gossip.Overlay}).
    Beyond three, monitors are synthesized round-robin over the
    same three ASes with their own in-prefix log endpoints — the scaling
    configuration for the multi-vantage experiments.  With [monitors = 0]
    no gossip mesh is built — the single-vantage baseline that cannot
    detect a fork.  Raises [Invalid_argument] unless
    [0 <= monitors <= max_monitors].

    [refresh_interval] shortens every authority's re-issuance period (see
    {!Model.build}) so scaling runs can churn the universe every tick;
    [valcache] (default true) controls the loop's shared validation plane
    ([valcache = false] leaves the loop's [valcache] field [None]).
    [persist] (default false) sets the loop's [disk] to a fresh simulated
    disk, so every live vantage snapshots each tick — the crash-and-rollback
    rigging; without it a restart through [sv_respawn] is the fresh-start
    oracle, and a served rollback goes undetected.

    The split-view whack is {!Timeline.Split_view.run} with
    [~authority:sv_model.continental ~target_filename:sv_target_filename]:
    it forks only the victim's view ([transport sv_sim]).  Grace then holds
    the suppressed VRP for [grace] ticks, which is the window gossip
    detection must beat for the alarm to precede the route going invalid. *)

(** {2 Scenarios on generated worlds}

    The split-view / stall / restart settings parameterized by a generated
    {!Rpki_world.Synthesis} world instead of the fixed Section 6 model:
    power-law graph, synthesized CA hierarchy and ROAs, monitor vantages
    placed by an {!Rpki_world.Placement} policy, transport priced off the
    generated data plane. *)

type world_rig = {
  wr_sim : t;
  wr_world : Rpki_world.Synthesis.world;
  wr_target_filename : string;
      (** the victim's ROA — {!Timeline.Split_view.run}
          [~authority:wr_target_authority ~target_filename:wr_target_filename]
          forks the victim's view of it; the other scenario families
          corrupt or stall the same point *)
  wr_target_authority : Rpki_repo.Authority.t;
  wr_monitors : string list;  (** registered monitor vantage names *)
  wr_respawn : (log_epoch:int -> Relying_party.t) option;
      (** with [persist]: rebuilds the victim instance for
          {!restart_vantage} *)
}

val world_scenario :
  ?grace:int ->
  ?monitors:int ->
  ?placement:Rpki_world.Placement.policy ->
  ?gossip_period:int ->
  ?overlay:Gossip.Overlay.spec ->
  ?persist:bool ->
  ?world:Rpki_world.Synthesis.spec ->
  unit ->
  world_rig
(** Build a world from [world] (default {!Rpki_world.Synthesis.default_spec})
    and rig it like {!split_view_scenario}: the primary relying party
    ("victim-rp", grace default 4) at the world's designated RP stub,
    [monitors] (default 2) monitor vantages at ASes chosen by [placement]
    (default [By_degree]), all gossiping every [gossip_period] ticks,
    routing drop-invalid.  The fetch policy is the resilient shape with
    the sync budget scaled to the world's publication-point count.
    [persist] (default false) adds end-of-tick snapshots on a fresh
    simulated disk and a respawn builder. *)

(** {2 The canned fault-mix scenario}

    Corpus-calibrated background noise over a closed loop: a
    {!Rpki_repo.Fault_mix} engine rolls every authority each tick against a
    fault rate, injecting the empirical relying-party error mix while the
    primary syncs under a configurable {!Relying_party.unsafe_policy}. *)

type fault_mix_rig = {
  fm_sim : t;
  fm_engine : Rpki_repo.Fault_mix.t;
  fm_targets : Rpki_repo.Authority.t list;
      (** the authorities the engine rolls each tick *)
  fm_victim_uri : string;
      (** Continental's publication point, whose loss the
          graceful-degradation demo studies: whack or unroute it and its
          resources join the failed set, turning Sprint's covering ROA
          into an unsafe VRP *)
}

val fault_mix_scenario :
  ?unsafe:Relying_party.unsafe_policy ->
  ?fetch_policy:Relying_party.fetch_policy ->
  ?seed:int ->
  ?rate:float ->
  unit ->
  fault_mix_rig
(** The {!section6_scenario} fixture (Continental's /20 ROA under Sprint's
    covering /12-13 ROA — exactly the covering-ROA shape the unsafe
    analysis is about).  [unsafe] (default [Unsafe_accept]) is spliced
    into [fetch_policy] (default {!Relying_party.default_policy});
    [seed]/[rate] go to {!Rpki_repo.Fault_mix.create}. *)

val fault_mix_step : fault_mix_rig -> now:Rtime.t -> Rpki_repo.Fault_mix.injection list * tick_record
(** One fault-mix tick: {!Rpki_repo.Fault_mix.tick} the engine (repair due
    faults, inject fresh ones on the targets and the primary's transport),
    then {!step}. *)

(** {2 The canned long-run soak scenario}

    Endurance, not detection: run the split-view setting for thousands of
    ticks under configurable churn, with persistence on, and measure the
    growth curves the endurance refactor flattens — disk bytes per save
    (O(delta) segments vs O(history) full snapshots), Valcache residency
    (epoch eviction vs monotone growth) and Gc live words. *)

type soak_config = {
  sk_ticks : int;            (** simulation length, in ticks *)
  sk_churn_every : int;      (** re-issue ARIN's subtree every n ticks
                                 ({!Rpki_repo.Authority.maintain});
                                 0 = no churn *)
  sk_compact_every : int;    (** fold persistence chains every n ticks;
                                 0 = never *)
  sk_evict : bool;           (** epoch-based Valcache eviction at tick end *)
  sk_full_snapshots : bool;  (** force O(history) full saves (the baseline) *)
  sk_sample_every : int;     (** record a sample every n ticks (and at the
                                 last tick regardless) *)
  sk_validity : int option;  (** issuance validity window, in ticks — short
                                 windows are what make entries evictable *)
  sk_refresh_interval : int option;
  sk_world : Rpki_world.Synthesis.spec option;
      (** [Some spec] soaks a generated world (built via {!world_scenario};
          churn maintains the synthesized root's subtree; the soak's
          validity knobs override the spec's); [None] (default) soaks the
          canned small scenario *)
}

val default_soak : soak_config
(** 2000 ticks, no churn, compaction every 64 ticks, eviction on, segmented
    saves, a sample every 100 ticks. *)

type soak_sample = {
  so_tick : int;
  so_live_words : int;       (** [Gc.stat].live_words after [Gc.full_major] *)
  so_snapshot_bytes : int;   (** the primary store's base snapshot size *)
  so_chain_bytes : int;      (** base + segments: what a restore must read *)
  so_segments : int;         (** sealed segments beyond the base *)
  so_save_bytes : int;       (** disk bytes written since the previous sample *)
  so_log_size : int;         (** primary transparency-log leaves *)
  so_residency : Valcache.residency option;
}

type soak_report = {
  so_config : soak_config;
  so_samples : soak_sample list;  (** oldest first; last = final state *)
  so_saves : int;                 (** saves executed across all vantages *)
  so_total_save_bytes : int;      (** cumulative disk bytes written *)
  so_bytes_per_save : float;
}

val run_soak : ?config:soak_config -> unit -> soak_report
(** Build a {!split_view_scenario} (or a {!world_scenario}) with one
    monitor gossiping every 16 ticks and persistence on a fresh simulated
    disk, apply the config's endurance knobs ([keep_history] off so the
    run itself stays flat), drive [sk_ticks] ticks with the configured
    churn, and sample the growth curves. *)
