(** Attack timelines over the canned {!Loop} scenarios, written once.

    Each timeline takes a rig the caller has already built — persistence,
    monitors, shared validation plane and endurance knobs stay the
    caller's choice — plus only the parameters experiments actually vary,
    drives the tick-by-tick schedule, and returns a typed outcome.  The
    optional [observe] callback sees every scheduled move and every tick
    record as it happens (the CLI prints them; benches and tests usually
    ignore them and read the loop's history afterwards). *)

open Rpki_core
open Rpki_repo

(** Crash, restart and rollback: the adversary captures Continental's
    honest publication-point state at {!capture_at}, the authority revokes
    (63.174.25.0/24, AS 17054) at {!revoke_at}, the victim is killed right
    after its {!kill_after} step and the capture is replayed to it; it
    restarts at [restart_at]. *)
module Rollback_restart : sig
  val capture_at : int
  val revoke_at : int
  val kill_after : int

  type event =
    | Revoked of Rtime.t      (** the authority revoked the ROA (before the step) *)
    | Restarted of Rtime.t * Relying_party.recovery
        (** the victim came back (before the step) *)
    | Tick of Loop.tick_record
    | Killed of Rtime.t * Rpki_attack.Rollback.t
        (** the victim died after the step; the capture is now served *)

  type outcome = {
    recovery : Relying_party.recovery;  (** what the restart recovered *)
    serial_at_kill : int;               (** RTR serial when the victim died *)
  }

  val run :
    ?observe:(event -> unit) ->
    ?fault:Rpki_persist.Disk.fault ->
    restart_at:int ->
    ticks:int ->
    Loop.restart_rig ->
    outcome
  (** Run ticks [1..ticks].  [fault] is armed at {!kill_after}, so it
      fires on the victim's last pre-crash snapshot.  Raises
      [Invalid_argument] unless [kill_after < restart_at <= ticks]. *)
end

(** Byzantine equivocation: the named monitors each serve the victim a
    shadow log ({!Rpki_attack.Equivocator}) that mirrors a stealthy split
    view of Continental's point, forked at [attack_at] on the victim's
    transport and on every shadow's. *)
module Equivocation : sig
  type event =
    | Armed of Rpki_attack.Equivocator.t list
        (** every shadow is installed on the mesh (before the first tick) *)
    | Forked of Rtime.t * Rpki_attack.Split_view.t
        (** the victim's and the shadows' views forked (before the step) *)
    | Tick of Loop.tick_record

  type outcome = {
    equivocators : Rpki_attack.Equivocator.t list;
    honest_adjacent : bool;
        (** the overlay paired the victim with an honest monitor in some
            round from [attack_at] on — when detection is possible at all *)
  }

  val choose : Loop.split_view -> f:int -> string list
  (** [f] monitors picked by one fixed seeded shuffle, so the sets for
      growing [f] are nested. *)

  val run :
    ?observe:(event -> unit) ->
    byzantine:string list ->
    attack_at:int ->
    ticks:int ->
    Loop.split_view ->
    outcome
  (** Run ticks [1..ticks].  Raises [Invalid_argument] when the rig has
      no gossip mesh. *)
end
