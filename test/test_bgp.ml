(* Tests for the BGP substrate: topology, Gao-Rexford propagation, RPKI-aware
   selection, hijacks and the data plane. *)

open Rpki_core
open Rpki_bgp
open Rpki_ip

let all_valid (_ : Route.t) = Origin_validation.Valid

(* --- topology --- *)

let test_topology_links () =
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:3;
  Topology.peer t 1 4;
  Alcotest.(check (list int)) "asns" [ 1; 2; 3; 4 ] (Topology.asns t);
  Alcotest.(check (list int)) "providers of 3" [ 2 ] (Topology.providers t 3);
  Alcotest.(check (list int)) "customers of 1" [ 2 ] (Topology.customers t 1);
  Alcotest.(check (list int)) "peers of 4" [ 1 ] (Topology.peers t 4);
  Alcotest.(check int) "neighbours of 2" 2 (List.length (Topology.neighbours t 2))

let test_topology_rejects_cycle () =
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:3;
  Alcotest.(check bool) "cycle rejected" true
    (try
       Topology.link t ~provider:3 ~customer:1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "self link rejected" true
    (try
       Topology.link t ~provider:1 ~customer:1;
       false
     with Invalid_argument _ -> true)

(* --- propagation --- *)

(* chain: 1 <- 2 <- 3 (1 is top provider), plus peer 1~4 *)
let chain () =
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:3;
  Topology.peer t 1 4;
  t

let prefix = V4.p "10.0.0.0/16"

let test_propagation_reaches_everyone () =
  let t = chain () in
  let rib =
    Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:all_valid
      [ { Propagation.prefix; origin = 3 } ]
  in
  List.iter
    (fun asn ->
      match Propagation.route rib asn with
      | None -> Alcotest.failf "AS%d has no route" asn
      | Some e -> Alcotest.(check int) (Printf.sprintf "origin at %d" asn) 3
          e.Propagation.ann.Propagation.origin)
    [ 1; 2; 3; 4 ]

let test_propagation_valley_free () =
  (* a route learned from a peer must not be exported to another peer:
     topology 4 ~ 1 ~ 5 (two peerings); origin at 4; 5 must NOT hear it *)
  let t = Topology.create () in
  Topology.peer t 1 4;
  Topology.peer t 1 5;
  let rib =
    Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:all_valid
      [ { Propagation.prefix; origin = 4 } ]
  in
  Alcotest.(check bool) "1 hears it" true (Propagation.route rib 1 <> None);
  Alcotest.(check bool) "5 does not (valley-free)" true (Propagation.route rib 5 = None)

let test_propagation_prefers_customer () =
  (* AS 1 can reach the origin 9 via customer 2 or via peer 3; must choose
     the customer path even if longer *)
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:9;
  Topology.peer t 1 3;
  Topology.link t ~provider:3 ~customer:9;
  let rib =
    Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:all_valid
      [ { Propagation.prefix; origin = 9 } ]
  in
  match Propagation.route rib 1 with
  | Some e -> Alcotest.(check (option int)) "next hop is customer" (Some 2) (Propagation.next_hop e)
  | None -> Alcotest.fail "no route at 1"

let test_propagation_prefers_shorter () =
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:9;
  Topology.link t ~provider:1 ~customer:9;
  let rib =
    Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:all_valid
      [ { Propagation.prefix; origin = 9 } ]
  in
  match Propagation.route rib 1 with
  | Some e -> Alcotest.(check int) "direct path" 2 (List.length e.Propagation.path)
  | None -> Alcotest.fail "no route"

let test_drop_invalid_blocks () =
  let t = chain () in
  let invalid (_ : Route.t) = Origin_validation.Invalid in
  let rib =
    Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Drop_invalid) ~validity_of:invalid
      [ { Propagation.prefix; origin = 3 } ]
  in
  List.iter (fun asn -> Alcotest.(check bool) "dropped" true (Propagation.route rib asn = None)) [ 1; 2; 3; 4 ]

let test_depref_prefers_valid () =
  (* two origins for the same prefix; AS 1 hears the invalid one via a
     shorter customer path and the valid one via a longer one — depref must
     pick valid anyway *)
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:66;      (* attacker, direct customer *)
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:9;       (* victim, two hops down *)
  let validity (r : Route.t) =
    if r.Route.origin = 9 then Origin_validation.Valid else Origin_validation.Invalid
  in
  let anns = [ { Propagation.prefix; origin = 9 }; { Propagation.prefix; origin = 66 } ] in
  let rib_depref =
    Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Depref_invalid) ~validity_of:validity anns
  in
  (match Propagation.route rib_depref 1 with
  | Some e -> Alcotest.(check int) "depref picks valid origin" 9 e.Propagation.ann.Propagation.origin
  | None -> Alcotest.fail "no route");
  let rib_ignore =
    Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:validity anns
  in
  match Propagation.route rib_ignore 1 with
  | Some e -> Alcotest.(check int) "ignore picks shorter (attacker)" 66 e.Propagation.ann.Propagation.origin
  | None -> Alcotest.fail "no route"

(* --- data plane --- *)

let test_lpm_forwarding () =
  let s = Topo_gen.small_scenario () in
  let victim_prefix = V4.p "63.174.16.0/20" in
  let dst = V4.addr_of_string_exn "63.174.23.7" in
  let sub = Hijack.subprefix_containing ~victim_prefix ~addr:dst ~len:24 in
  Alcotest.(check string) "subprefix" "63.174.23.0/24" (V4.Prefix.to_string sub);
  let anns =
    Hijack.announcements ~victim_prefix ~victim_as:s.Topo_gen.victim
      ~attacker_as:s.Topo_gen.attacker (Hijack.Subprefix_hijack sub)
  in
  let net =
    Data_plane.build ~topo:s.Topo_gen.small_topo ~policy_of:(fun _ -> Policy.Ignore_rpki)
      ~validity_of:all_valid anns
  in
  (* LPM sends the packet to the hijacker even though the /20 route exists *)
  (match Data_plane.trace net ~src:s.Topo_gen.source ~addr:dst with
  | Data_plane.Delivered { origin; _ } -> Alcotest.(check int) "intercepted" s.Topo_gen.attacker origin
  | _ -> Alcotest.fail "no delivery");
  (* an address outside the hijacked /24 still reaches the victim *)
  let dst2 = V4.addr_of_string_exn "63.174.18.1" in
  match Data_plane.trace net ~src:s.Topo_gen.source ~addr:dst2 with
  | Data_plane.Delivered { origin; _ } -> Alcotest.(check int) "victim" s.Topo_gen.victim origin
  | _ -> Alcotest.fail "no delivery 2"

let test_no_route () =
  let s = Topo_gen.small_scenario () in
  let net =
    Data_plane.build ~topo:s.Topo_gen.small_topo ~policy_of:(fun _ -> Policy.Ignore_rpki)
      ~validity_of:all_valid []
  in
  match Data_plane.trace net ~src:s.Topo_gen.source ~addr:(V4.addr_of_string_exn "8.8.8.8") with
  | Data_plane.No_route _ -> ()
  | _ -> Alcotest.fail "expected no route"

(* --- incremental data plane --- *)

(* Two networks agree: the same prefixes in the same order, equal per-AS
   entries, and the same forwarding trace from every AS to each prefix's
   first address. *)
let equal_networks (a : Data_plane.network) (b : Data_plane.network) =
  let asns = Topology.asns a.Data_plane.topo in
  List.equal V4.Prefix.equal (List.map fst a.Data_plane.ribs) (List.map fst b.Data_plane.ribs)
  && List.for_all2
       (fun (_, ra) (_, rb) ->
         Hashtbl.length ra = Hashtbl.length rb
         && List.for_all (fun asn -> Propagation.route ra asn = Propagation.route rb asn) asns)
       a.Data_plane.ribs b.Data_plane.ribs
  && List.for_all
       (fun (p, _) ->
         let addr = V4.Prefix.first p in
         List.for_all
           (fun src -> Data_plane.trace a ~src ~addr = Data_plane.trace b ~src ~addr)
           asns)
       a.Data_plane.ribs

(* A random chain of builds on a small generated topology, each handed the
   previous network as [prev]; every step must equal the from-scratch
   build.  The steps flip route validities, add hijack and subprefix
   announcements or withdraw one, switch policies, grow the topology
   (a version bump) and swap in a fresh topology object.  The work counter
   is bounded too: a flip or an announcement change recomputes at most the
   prefixes it touched, a new topology recomputes every prefix and a step
   that changes nothing recomputes none. *)
let incremental_invariant seed =
  let rng = Random.State.make [| seed |] in
  let spec = { Topo_gen.default_spec with Topo_gen.tier1 = 3; tier2 = 6; stubs = 20; seed } in
  let g = Topo_gen.generate spec in
  let topo = ref g.Topo_gen.topo in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let random_as () = pick (Topology.asns !topo) in
  let states = [ Origin_validation.Valid; Origin_validation.Invalid; Origin_validation.Unknown ] in
  let validity = Hashtbl.create 16 in
  let validity_of (r : Route.t) =
    Option.value ~default:Origin_validation.Unknown
      (Hashtbl.find_opt validity (r.Route.prefix, r.Route.origin))
  in
  let policies = Hashtbl.create 16 in
  let policy_of asn = Option.value ~default:Policy.Drop_invalid (Hashtbl.find_opt policies asn) in
  let bases = List.init 4 (fun i -> V4.p (Printf.sprintf "10.%d.0.0/16" i)) in
  let anns =
    ref
      (List.map
         (fun prefix ->
           let origin = pick g.Topo_gen.stub_asns in
           Hashtbl.replace validity (prefix, origin) Origin_validation.Valid;
           { Propagation.prefix; origin })
         bases)
  in
  let build ?prev () = Data_plane.build ?prev ~topo:!topo ~policy_of ~validity_of !anns in
  let prefix_count () =
    List.length (List.sort_uniq V4.Prefix.compare (List.map (fun a -> a.Propagation.prefix) !anns))
  in
  let prev = ref (build ()) in
  for step = 1 to 12 do
    (* bounds on how many prefixes this step may recompute *)
    let lo = ref 0 and hi = ref max_int in
    (match Random.State.int rng 7 with
    | 0 when !anns <> [] ->
      let flips = 1 + Random.State.int rng 2 in
      for _ = 1 to flips do
        let a = pick !anns in
        Hashtbl.replace validity (a.Propagation.prefix, a.Propagation.origin) (pick states)
      done;
      hi := flips
    | 1 ->
      let base = pick bases in
      let prefix =
        if Random.State.bool rng then base
        else
          Hijack.subprefix_containing ~victim_prefix:base
            ~addr:(V4.Prefix.first base + (Random.State.int rng 256 lsl 8))
            ~len:24
      in
      anns := !anns @ [ { Propagation.prefix; origin = random_as () } ];
      lo := 1;
      hi := 1
    | 2 when !anns <> [] ->
      let victim = pick !anns in
      anns := List.filter (fun a -> a != victim) !anns;
      hi := 1
    | 3 ->
      let p = pick Policy.all in
      if Random.State.bool rng then
        List.iter (fun asn -> Hashtbl.replace policies asn p) (Topology.asns !topo)
      else Hashtbl.replace policies (random_as ()) p
    | 4 ->
      (* a version bump: a peering between two existing ASes, or a new stub *)
      let a = random_as () and b = random_as () in
      if a <> b && (not (List.mem_assoc b (Topology.neighbours !topo a)))
         && Random.State.bool rng
      then Topology.peer !topo a b
      else begin
        let asn = 4_000_000 + step in
        Topology.add_as !topo asn;
        Topology.link !topo ~provider:a ~customer:asn
      end;
      lo := max_int
    | 5 ->
      (* a structurally equal topology, but not the object [prev] was built on *)
      let fresh = Topology.create () in
      let asns = Topology.asns !topo in
      List.iter (Topology.add_as fresh) asns;
      List.iter
        (fun a ->
          List.iter
            (fun c -> Topology.link fresh ~provider:a ~customer:c)
            (Topology.customers !topo a);
          List.iter (fun b -> if a < b then Topology.peer fresh a b) (Topology.peers !topo a))
        asns;
      topo := fresh;
      lo := max_int
    | _ -> hi := 0);
    let inc = build ~prev:!prev () and scratch = build () in
    if not (equal_networks inc scratch) then
      QCheck.Test.fail_reportf "seed %d step %d: incremental build differs from scratch" seed step;
    let n = prefix_count () and r = inc.Data_plane.recomputed in
    if r < min !lo n || r > min !hi n then
      QCheck.Test.fail_reportf "seed %d step %d: recomputed %d of %d prefixes, expected %d..%d"
        seed step r n (min !lo n) (min !hi n);
    prev := inc
  done;
  true

let prop_incremental =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"incremental build == from-scratch build"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000))
       incremental_invariant)

(* --- hijack helpers --- *)

let test_hijack_validation () =
  Alcotest.(check bool) "not a subprefix" true
    (try
       ignore
         (Hijack.announcements ~victim_prefix:prefix ~victim_as:1 ~attacker_as:2
            (Hijack.Subprefix_hijack (V4.p "99.0.0.0/24")));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "prefix hijack: two announcements" 2
    (List.length (Hijack.announcements ~victim_prefix:prefix ~victim_as:1 ~attacker_as:2 Hijack.Prefix_hijack))

(* --- generated topology sanity --- *)

let test_topo_gen () =
  let g = Topo_gen.generate Topo_gen.default_spec in
  let n = List.length (Topology.asns g.Topo_gen.topo) in
  Alcotest.(check int) "as count"
    (Topo_gen.default_spec.Topo_gen.tier1 + Topo_gen.default_spec.Topo_gen.tier2
    + Topo_gen.default_spec.Topo_gen.stubs)
    n;
  (* every stub can reach a tier-1-originated prefix *)
  let origin = List.hd g.Topo_gen.tier1_asns in
  let rib =
    Propagation.compute ~topo:g.Topo_gen.topo ~policy_of:(fun _ -> Policy.Ignore_rpki)
      ~validity_of:all_valid
      [ { Propagation.prefix; origin } ]
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "stub %d reached" s) true (Propagation.route rib s <> None))
    g.Topo_gen.stub_asns;
  (* determinism *)
  let g2 = Topo_gen.generate Topo_gen.default_spec in
  Alcotest.(check (list int)) "deterministic" (Topology.asns g.Topo_gen.topo)
    (Topology.asns g2.Topo_gen.topo)

(* --- Table 6 shape on the small scenario --- *)

let table6_cell policy attack =
  let s = Topo_gen.small_scenario () in
  let victim_prefix = V4.p "63.174.16.0/20" in
  let dst = V4.addr_of_string_exn "63.174.23.7" in
  let idx = Origin_validation.build [ Vrp.make ~max_len:20 victim_prefix s.Topo_gen.victim ] in
  let validity r = Origin_validation.classify idx r in
  let anns =
    match attack with
    | `Subprefix_hijack ->
      Hijack.announcements ~victim_prefix ~victim_as:s.Topo_gen.victim
        ~attacker_as:s.Topo_gen.attacker
        (Hijack.Subprefix_hijack (Hijack.subprefix_containing ~victim_prefix ~addr:dst ~len:24))
    | `Rpki_manipulation ->
      (* ROA whacked while a covering ROA exists: victim's route is invalid *)
      [ { Propagation.prefix = victim_prefix; origin = s.Topo_gen.victim } ]
  in
  let validity =
    match attack with
    | `Subprefix_hijack -> validity
    | `Rpki_manipulation ->
      fun (r : Route.t) ->
        Origin_validation.classify
          (Origin_validation.build [ Vrp.make ~max_len:13 (V4.p "63.160.0.0/12") 1239 ])
          r
  in
  let net =
    Data_plane.build ~topo:s.Topo_gen.small_topo ~policy_of:(fun _ -> policy) ~validity_of:validity anns
  in
  Data_plane.reaches net ~src:s.Topo_gen.source ~addr:dst ~expected:s.Topo_gen.victim

let test_table6 () =
  (* drop invalid: reachable under routing attack, not under manipulation *)
  Alcotest.(check bool) "drop/hijack" true (table6_cell Policy.Drop_invalid `Subprefix_hijack);
  Alcotest.(check bool) "drop/manip" false (table6_cell Policy.Drop_invalid `Rpki_manipulation);
  (* depref invalid: the opposite corner *)
  Alcotest.(check bool) "depref/hijack" false (table6_cell Policy.Depref_invalid `Subprefix_hijack);
  Alcotest.(check bool) "depref/manip" true (table6_cell Policy.Depref_invalid `Rpki_manipulation)

let () =
  Alcotest.run "bgp"
    [ ( "topology",
        [ Alcotest.test_case "links" `Quick test_topology_links;
          Alcotest.test_case "cycle rejection" `Quick test_topology_rejects_cycle ] );
      ( "propagation",
        [ Alcotest.test_case "reaches everyone" `Quick test_propagation_reaches_everyone;
          Alcotest.test_case "valley free" `Quick test_propagation_valley_free;
          Alcotest.test_case "prefers customer" `Quick test_propagation_prefers_customer;
          Alcotest.test_case "prefers shorter" `Quick test_propagation_prefers_shorter;
          Alcotest.test_case "drop invalid" `Quick test_drop_invalid_blocks;
          Alcotest.test_case "depref picks valid" `Quick test_depref_prefers_valid ] );
      ( "data-plane",
        [ Alcotest.test_case "LPM forwarding" `Quick test_lpm_forwarding;
          Alcotest.test_case "no route" `Quick test_no_route;
          prop_incremental ] );
      ("hijack", [ Alcotest.test_case "validation" `Quick test_hijack_validation ]);
      ("topo-gen", [ Alcotest.test_case "generated topology" `Quick test_topo_gen ]);
      ("table-6", [ Alcotest.test_case "policy tradeoff" `Quick test_table6 ]) ]
