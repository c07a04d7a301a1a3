(* Gossip overlays and Byzantine vantages.

   Structure: the overlay generators are deterministic in (spec, seed,
   names, round) and always connect the mesh (QCheck over seeds); a round
   over ANY connected overlay eventually raises the same Fork keys as the
   full mesh (observational property); the round-level STH memo collapses
   O(n²) head verifications to O(n) (counted against the global RSA
   verifier); and an equivocating traitor eclipses the victim exactly when
   it owns every honest edge — while a mirrored shadow served to a victim
   with honest pre-attack history betrays itself. *)

open Rpki_repo
open Rpki_sim

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 5000)

let names_of n = List.init n (Printf.sprintf "v%02d")

let prop c name p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:c ~name seed_gen p)

(* --- overlay generators: deterministic, connected, right-sized --- *)

let prop_k_regular seed =
  let n = 4 + (seed mod 37) in
  let names = names_of n in
  List.iter
    (fun k ->
      let pulls = Gossip.Overlay.pulls (K_regular k) ~seed ~round:1 names in
      let again = Gossip.Overlay.pulls (K_regular k) ~seed ~round:7 names in
      if pulls <> again then
        QCheck.Test.fail_reportf "k:%d not round-invariant (seed %d)" k seed;
      if not (Gossip.Overlay.connected pulls ~names) then
        QCheck.Test.fail_reportf "k:%d disconnected at n=%d (seed %d)" k n seed;
      if k mod 2 = 0 && k < n && List.length pulls <> n * k then
        QCheck.Test.fail_reportf "k:%d at n=%d gave %d pulls, wanted %d (seed %d)" k n
          (List.length pulls) (n * k) seed)
    [ 2; 3; 4 ];
  true

let prop_star_and_random seed =
  let n = 3 + (seed mod 29) in
  let names = names_of n in
  let h = 1 + (seed mod 3) in
  let star = Gossip.Overlay.pulls (Star h) ~seed ~round:2 names in
  if not (Gossip.Overlay.connected star ~names) then
    QCheck.Test.fail_reportf "star:%d disconnected at n=%d (seed %d)" h n seed;
  let k = min 2 (n - 1) in
  let r1 = Gossip.Overlay.pulls (Random_peers k) ~seed ~round:3 names in
  let r1' = Gossip.Overlay.pulls (Random_peers k) ~seed ~round:3 names in
  if r1 <> r1' then QCheck.Test.fail_reportf "random:%d not deterministic (seed %d)" k seed;
  List.iter
    (fun v ->
      let deg = List.length (List.filter (fun (r, _) -> String.equal r v) r1) in
      if deg <> k then
        QCheck.Test.fail_reportf "random:%d receiver %s pulls %d peers (seed %d)" k v deg
          seed)
    names;
  true

let test_overlay_strings () =
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Gossip.Overlay.to_string o) true
        (Gossip.Overlay.of_string (Gossip.Overlay.to_string o) = Some o))
    [ Gossip.Overlay.Full_mesh; K_regular 4; Star 2; Random_peers 3 ];
  Alcotest.(check bool) "garbage" true (Gossip.Overlay.of_string "k:zero" = None);
  Alcotest.(check bool) "degree 0" true (Gossip.Overlay.of_string "k:0" = None)

(* --- the round-level STH memo: O(n) head verifications a round --- *)

let test_verify_count_drop () =
  let monitors = 7 in
  let n = monitors + 1 in
  (* park the loop's own gossip; drive rounds by hand *)
  let sv = Loop.split_view_scenario ~monitors ~gossip_period:99 () in
  let t = sv.Loop.sv_sim in
  let g = Option.get (Loop.gossip_mesh t) in
  ignore (Loop.step t ~now:1);
  ignore (Gossip.round g ~now:1);
  (* warm round: every key exists, every log is stable *)
  ignore (Loop.step t ~now:2);
  let before = Rpki_crypto.Rsa.verification_count () in
  let rep = Gossip.round g ~now:2 in
  let delta = Rpki_crypto.Rsa.verification_count () - before in
  Alcotest.(check int) "full mesh runs n(n-1) pulls" (n * (n - 1)) rep.Gossip.r_pulls;
  (* one signature check per served log, not one per edge *)
  Alcotest.(check int) "RSA verifies = n" n delta;
  Alcotest.(check int) "report counts them" n rep.Gossip.r_verifies;
  Alcotest.(check int) "rest answered by the memo" ((n * (n - 1)) - n)
    rep.Gossip.r_verifies_saved

let test_pulls_skipped () =
  let monitors = 3 in
  let sv = Loop.split_view_scenario ~monitors ~gossip_period:99 ~overlay:(K_regular 2) () in
  let t = sv.Loop.sv_sim in
  let g = Option.get (Loop.gossip_mesh t) in
  ignore (Loop.step t ~now:1);
  let quiet = List.hd sv.Loop.sv_monitors in
  Gossip.set_server g ~name:quiet (fun ~receiver:_ -> (Loop.vantage t ~name:quiet).Gossip.v_rp);
  let rep = Gossip.round g ~now:1 in
  (* a Byzantine receiver pulls nothing: its out-edges are skipped, not run *)
  Alcotest.(check int) "skipped = the traitor's out-degree" 2 rep.Gossip.r_skipped;
  Alcotest.(check int) "the rest ran" ((4 * 2) - 2) rep.Gossip.r_pulls;
  Gossip.clear_server g ~name:quiet

(* --- the round-level Merkle-check memo --- *)

module Log = Rpki_transparency.Log

(* A 16-vantage honest full mesh with ARIN re-signed every tick: every
   round's checks are bounded by the distinct statements on the wire —
   (root, size, index) records plus (old head, new head) consistency
   ranges — and the memo answers every other pull's check. *)
let test_check_memo_bound () =
  let sv = Loop.split_view_scenario ~monitors:15 ~gossip_period:99 ~refresh_interval:1 () in
  let t = sv.Loop.sv_sim in
  let g = Option.get (Loop.gossip_mesh t) in
  let vs = Gossip.vantages g in
  let n = List.length vs in
  Alcotest.(check int) "16 vantages" 16 n;
  for now = 1 to 4 do
    Authority.maintain sv.Loop.sv_model.Model.arin ~now;
    ignore (Loop.step t ~now);
    let records = Hashtbl.create 256 and ranges = Hashtbl.create 16 in
    let uncached = ref 0 in
    List.iter
      (fun (r : Gossip.vantage) ->
        List.iter
          (fun (p : Gossip.vantage) ->
            if r != p then begin
              let head = Log.head (Relying_party.transparency_log p.Gossip.v_rp) ~at:now in
              let old = List.assoc_opt p.Gossip.v_name (Relying_party.peer_heads r.Gossip.v_rp) in
              let old_size = match old with Some h -> h.Log.h_size | None -> 0 in
              for i = old_size to head.Log.h_size - 1 do
                Hashtbl.replace records (head.Log.h_root, head.Log.h_size, i) ();
                incr uncached
              done;
              Option.iter
                (fun (oh : Log.head) ->
                  Hashtbl.replace ranges
                    (oh.Log.h_log_id, oh.Log.h_size, oh.Log.h_root, head.Log.h_log_id,
                     head.Log.h_size, head.Log.h_root)
                    ();
                  incr uncached)
                old
            end)
          vs)
      vs;
    let rep = Gossip.round g ~now in
    let bound = Hashtbl.length records + Hashtbl.length ranges in
    Alcotest.(check int) (Printf.sprintf "t%d: n(n-1) pulls" now) (n * (n - 1)) rep.Gossip.r_pulls;
    Alcotest.(check bool)
      (Printf.sprintf "t%d: %d checks <= %d distinct statements" now rep.Gossip.r_checks bound)
      true
      (rep.Gossip.r_checks <= bound);
    Alcotest.(check int)
      (Printf.sprintf "t%d: run + memoised = one per record and range pulled" now)
      !uncached
      (rep.Gossip.r_checks + rep.Gossip.r_checks_saved);
    Alcotest.(check bool) (Printf.sprintf "t%d: the log grew" now) true (!uncached > 0);
    Alcotest.(check (list string)) (Printf.sprintf "t%d: no alarms" now) []
      (List.map Gossip.describe_alarm rep.Gossip.r_alarms)
  done

(* Two Byzantine servers serve the same log (one head root) in the same
   round; one of them tampers with the inclusion proofs it sends to one
   receiver.  Only that pull fails: the memo keys on the proof hashes, so
   neither verdict leaks into the other. *)
let test_check_memo_tampered_proof () =
  let sv = Loop.split_view_scenario ~monitors:3 ~gossip_period:99 () in
  let t = sv.Loop.sv_sim in
  let g = Option.get (Loop.gossip_mesh t) in
  ignore (Loop.step t ~now:1);
  let a, b, x =
    match sv.Loop.sv_monitors with [ a; b; x ] -> (a, b, x) | _ -> assert false
  in
  let shared = (Loop.vantage t ~name:a).Gossip.v_rp in
  let flip h = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) h in
  let tamper ~receiver ~index:_ proof =
    if not (String.equal receiver x) then proof
    else match proof with h :: tl -> flip h :: tl | [] -> [ String.make 32 '\x00' ]
  in
  Gossip.set_server g ~name:a ~tamper (fun ~receiver:_ -> shared);
  Gossip.set_server g ~name:b (fun ~receiver:_ -> shared);
  let rep = Gossip.round g ~now:1 in
  let bad =
    List.filter_map
      (function
        | Gossip.Bad_inclusion { bi_peer; bi_seen_by; _ } -> Some (bi_peer, bi_seen_by)
        | _ -> None)
      rep.Gossip.r_alarms
  in
  let records = Log.size (Relying_party.transparency_log shared) in
  Alcotest.(check bool) "the served log is not empty" true (records > 0);
  Alcotest.(check int) "one Bad_inclusion per record, all on the tampered pull" records
    (List.length (List.filter (fun pr -> pr = (a, x)) bad));
  Alcotest.(check int) "no other pull fails" records (List.length bad);
  Alcotest.(check int) "no other alarm" records (List.length rep.Gossip.r_alarms);
  Gossip.clear_server g ~name:a;
  Gossip.clear_server g ~name:b

(* --- observational equivalence: any connected overlay, same forks --- *)

let fork_keys g =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Gossip.Fork { fork_uri; fork_serial; _ } -> Some (fork_uri, fork_serial)
         | _ -> None)
       (Gossip.alarms g))

let run_split ~overlay ~overlay_seed =
  let sv = Loop.split_view_scenario ~monitors:5 ~gossip_period:1 ~overlay ~overlay_seed () in
  let t = sv.Loop.sv_sim in
  Timeline.Split_view.run ~attack_at:3 ~ticks:6 ~authority:sv.Loop.sv_model.Model.continental
    ~target_filename:sv.Loop.sv_target_filename t;
  Option.get (Loop.gossip_mesh t)

let prop_observational seed =
  let mesh = run_split ~overlay:Gossip.Overlay.Full_mesh ~overlay_seed:seed in
  let ring = run_split ~overlay:(K_regular 2) ~overlay_seed:seed in
  let mk = fork_keys mesh and rk = fork_keys ring in
  if mk = [] then QCheck.Test.fail_reportf "full mesh missed the fork (seed %d)" seed;
  if mk <> rk then
    QCheck.Test.fail_reportf "k:2 fork keys differ from the mesh (seed %d)" seed;
  (* the sparse overlay's evidence is as portable as the mesh's *)
  List.iter
    (fun a ->
      if Gossip.is_fork a && not (Gossip.verify_fork ~key_of:(Gossip.key_of ring) a) then
        QCheck.Test.fail_reportf "k:2 fork evidence failed re-verification (seed %d)" seed)
    (Gossip.alarms ring);
  true

(* --- Byzantine equivocators ------------------------------------------ *)

(* A scenario with the fork running from the victim's first sync, the given
   monitors turned Byzantine (mirroring shadows), under the given overlay. *)
let run_byzantine ~overlay ~byz ~attack_at ~ticks =
  let sv = Loop.split_view_scenario ~monitors:3 ~gossip_period:1 ~overlay () in
  let out = Timeline.Equivocation.run ~byzantine:(byz sv) ~attack_at ~ticks sv in
  let t = sv.Loop.sv_sim in
  (t, Option.get (Loop.gossip_mesh t), out.Timeline.Equivocation.equivocators)

let hub_of sv = [ List.nth sv.Loop.sv_monitors (List.length sv.Loop.sv_monitors - 1) ]

let test_equivocator_eclipse () =
  (* star:1 with a Byzantine hub: nobody honest ever examines the victim's
     log, the hub mirrors the victim's fork back at it — total eclipse *)
  let t, g, eqs =
    run_byzantine ~overlay:(Star 1) ~byz:hub_of ~attack_at:1 ~ticks:5
  in
  Alcotest.(check bool) "no detection" true (Loop.first_fork_tick t = None);
  Alcotest.(check bool) "no alarms at all" true (Gossip.alarms g = []);
  let eq = List.hd eqs in
  Alcotest.(check bool) "the victim was fed the shadow" true
    (Rpki_attack.Equivocator.served_forked eq >= 4);
  Alcotest.(check bool) "honest spokes got the honest log" true
    (Rpki_attack.Equivocator.served_honest eq >= 4)

let test_equivocator_honest_neighbor () =
  (* full mesh, one traitor: any honest monitor pulling the victim sees the
     fork on the first round *)
  let t, _, _ =
    run_byzantine ~overlay:Gossip.Overlay.Full_mesh ~byz:hub_of ~attack_at:1 ~ticks:3
  in
  Alcotest.(check (option int)) "caught on round one" (Some 1) (Loop.first_fork_tick t)

let test_mirror_self_betrayal () =
  (* mid-history fork: the victim synced honestly first, so its own
     first-seen record conflicts with the mirrored shadow's delta and the
     victim raises the Fork itself — equivocation is self-defeating
     against a victim that holds honest history *)
  let t, _, _ = run_byzantine ~overlay:(Star 1) ~byz:hub_of ~attack_at:3 ~ticks:5 in
  Alcotest.(check (option int)) "the victim betrays the mirror" (Some 3)
    (Loop.first_fork_tick t)

let () =
  Alcotest.run "gossip"
    [ ( "overlay",
        [ Alcotest.test_case "spec strings round-trip" `Quick test_overlay_strings;
          prop 40 "k-regular: connected, deterministic, O(n·k)" prop_k_regular;
          prop 40 "star connected; random sample deterministic" prop_star_and_random ] );
      ( "caching",
        [ Alcotest.test_case "STH memo: n verifies for n(n-1) pulls" `Quick
            test_verify_count_drop;
          Alcotest.test_case "r_pulls / r_skipped accounting" `Quick test_pulls_skipped;
          Alcotest.test_case "Merkle checks <= distinct statements (16-vantage mesh)" `Quick
            test_check_memo_bound;
          Alcotest.test_case "tampered proof fails only its own pull" `Quick
            test_check_memo_tampered_proof ] );
      ( "observational",
        [ prop 4 "k:2 raises the mesh's fork keys, evidence portable" prop_observational ] );
      ( "byzantine",
        [ Alcotest.test_case "eclipsed victim: no honest edge, no alarm" `Quick
            test_equivocator_eclipse;
          Alcotest.test_case "one honest neighbor suffices" `Quick
            test_equivocator_honest_neighbor;
          Alcotest.test_case "mirrored shadow betrayed by honest history" `Quick
            test_mirror_self_betrayal ] ) ]
