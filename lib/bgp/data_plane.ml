(* The data plane: longest-prefix-match forwarding over per-prefix RIBs.

   This is where subprefix hijacks bite ("when a router is offered BGP
   routes for a prefix and its subprefix, it always chooses the subprefix
   route") and where the paper's reachability questions (Table 6, Section 6)
   are answered. *)

open Rpki_core
open Rpki_ip

(* What one prefix's propagation is seeded with: each announcement paired
   with the validity its route classifies to, in announcement order. *)
type seed = Propagation.announcement * Origin_validation.state

(* Everything a prefix's RIB is a pure function of, besides its seeds: the
   adjacency (topology object and version) and the per-AS policy, in
   ascending ASN order. *)
type key = {
  k_version : int;
  k_policy : Policy.t array;
  k_seeds : seed list list; (* parallel to [ribs] *)
}

type network = {
  topo : Topology.t;
  ribs : (V4.Prefix.t * Propagation.rib) list; (* one rib per announced prefix *)
  recomputed : int;
  key : key;
}

let seed_equal ((a, v) : seed) ((b, w) : seed) =
  V4.Prefix.equal a.Propagation.prefix b.Propagation.prefix
  && Int.equal a.Propagation.origin b.Propagation.origin
  && Origin_validation.equal_state v w

(* The announcements grouped by prefix, prefixes ascending, each group in
   announcement order (the order [Propagation.compute] seeds in). *)
let group_by_prefix (anns : Propagation.announcement list) =
  let sorted =
    List.stable_sort
      (fun a b -> V4.Prefix.compare a.Propagation.prefix b.Propagation.prefix)
      anns
  in
  List.fold_right
    (fun a groups ->
      match groups with
      | (p, group) :: rest when V4.Prefix.equal p a.Propagation.prefix ->
        (p, a :: group) :: rest
      | _ -> (a.Propagation.prefix, [ a ]) :: groups)
    sorted []

(* Compute RIBs for every distinct announced prefix, reusing [prev]'s RIB
   for a prefix whose key is unchanged. *)
let build ?prev ~topo ~policy_of ~validity_of (anns : Propagation.announcement list) =
  let k_version = Topology.version topo in
  let k_policy = Array.of_list (List.map policy_of (Topology.asns topo)) in
  (* prefix -> the previous build's (seeds, rib), when its adjacency and
     policy match this build's; otherwise nothing is reusable *)
  let reusable = Hashtbl.create 64 in
  (match prev with
  | Some p when p.topo == topo && p.key.k_version = k_version && p.key.k_policy = k_policy ->
    List.iter2
      (fun (prefix, rib) seeds -> Hashtbl.replace reusable prefix (seeds, rib))
      p.ribs p.key.k_seeds
  | _ -> ());
  let recomputed = ref 0 in
  let built =
    List.map
      (fun (prefix, group) ->
        let seeds =
          List.map
            (fun a -> (a, validity_of (Route.make a.Propagation.prefix a.Propagation.origin)))
            group
        in
        let rib =
          match Hashtbl.find_opt reusable prefix with
          | Some (old, rib) when List.equal seed_equal old seeds -> rib
          | _ ->
            incr recomputed;
            Propagation.compute ~topo ~policy_of ~validity_of group
        in
        (prefix, seeds, rib))
      (group_by_prefix anns)
  in
  { topo;
    ribs = List.map (fun (prefix, _, rib) -> (prefix, rib)) built;
    recomputed = !recomputed;
    key = { k_version; k_policy; k_seeds = List.map (fun (_, seeds, _) -> seeds) built } }

(* The forwarding decision of [asn] for destination [addr]: the entry of the
   longest prefix covering [addr] for which the AS holds a route. *)
let forwarding_entry net ~asn ~addr =
  let candidates =
    List.filter_map
      (fun (prefix, rib) ->
        if V4.Prefix.contains_addr prefix addr then
          Option.map (fun e -> (prefix, e)) (Propagation.route rib asn)
        else None)
      net.ribs
  in
  match candidates with
  | [] -> None
  | _ ->
    Some
      (List.fold_left
         (fun best c ->
           let (bp, _) = best and (cp, _) = c in
           if V4.Prefix.len cp > V4.Prefix.len bp then c else best)
         (List.hd candidates) (List.tl candidates))

type delivery =
  | Delivered of { origin : int; hops : int list } (* reached the origin AS *)
  | No_route of int                                (* AS with no route *)
  | Loop of int list

(* Trace a packet from [src] AS toward [addr], hop by hop.  Each hop
   re-evaluates LPM with its own RIB, so a subprefix hijack diverts traffic
   even at ASes that still hold the victim's covering route. *)
let trace net ~src ~addr =
  let rec go asn visited =
    if List.mem asn visited then Loop (List.rev (asn :: visited))
    else begin
      match forwarding_entry net ~asn ~addr with
      | None -> No_route asn
      | Some (_, e) -> (
        if e.Propagation.ann.Propagation.origin = asn then
          Delivered { origin = asn; hops = List.rev (asn :: visited) }
        else
          match Propagation.next_hop e with
          | None -> Delivered { origin = asn; hops = List.rev (asn :: visited) }
          | Some nh -> go nh (asn :: visited))
    end
  in
  go src []

(* Does traffic from [src] to [addr] reach [expected] (the legitimate
   origin)? *)
let reaches net ~src ~addr ~expected =
  match trace net ~src ~addr with
  | Delivered { origin; _ } -> origin = expected
  | No_route _ | Loop _ -> false

(* Fraction of ASes whose traffic to [addr] reaches [expected]. *)
let reachability_fraction net ~addr ~expected =
  let asns = Topology.asns net.topo in
  let ok = List.length (List.filter (fun a -> reaches net ~src:a ~addr ~expected) asns) in
  float_of_int ok /. float_of_int (List.length asns)
