(** The data plane: longest-prefix-match forwarding over per-prefix RIBs.

    This is where subprefix hijacks bite ("when a router is offered BGP
    routes for a prefix and its subprefix, it always chooses the subprefix
    route") and where the paper's reachability questions are answered. *)

open Rpki_core
open Rpki_ip

type key
(** What {!build} compares to decide whether a prefix's RIB can be reused:
    the topology version, the per-AS policy and every prefix's seeds (its
    announcements, each with the validity of its route). *)

type network = private {
  topo : Topology.t;
  ribs : (V4.Prefix.t * Propagation.rib) list;
      (** one RIB per announced prefix, prefixes ascending *)
  recomputed : int;  (** prefixes whose RIB this build computed *)
  key : key;
}
(** RIBs are shared between a network and the networks later built from
    it with [~prev]: no code may mutate a returned {!Propagation.rib}. *)

val build :
  ?prev:network ->
  topo:Topology.t ->
  policy_of:(int -> Policy.t) ->
  validity_of:(Route.t -> Origin_validation.state) ->
  Propagation.announcement list ->
  network
(** Compute RIBs for every distinct announced prefix.  A prefix's RIB is a
    pure function of the adjacency (the physical [topo] and its
    {!Topology.version}), the per-AS policy and the prefix's seeds, so with
    [prev] a prefix whose three inputs all equal [prev]'s keeps [prev]'s
    RIB and only the others are recomputed.  The result equals a build
    without [prev].  [validity_of] must be pure. *)

val forwarding_entry :
  network -> asn:int -> addr:Addr.V4.t -> (V4.Prefix.t * Propagation.entry) option
(** The LPM decision of [asn] for a destination address. *)

type delivery =
  | Delivered of { origin : int; hops : int list } (** reached this origin *)
  | No_route of int                                (** stuck at this AS *)
  | Loop of int list

val trace : network -> src:int -> addr:Addr.V4.t -> delivery
(** Hop-by-hop forwarding; each hop re-evaluates LPM with its own RIB, so a
    subprefix hijack diverts traffic even at ASes still holding the victim's
    covering route. *)

val reaches : network -> src:int -> addr:Addr.V4.t -> expected:int -> bool
(** Does traffic from [src] to [addr] reach the AS [expected]? *)

val reachability_fraction : network -> addr:Addr.V4.t -> expected:int -> float
(** Fraction of all ASes whose traffic to [addr] reaches [expected]. *)
