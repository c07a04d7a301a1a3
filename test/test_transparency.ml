(* The transparency log's cryptographic core, tested as invariants: for
   arbitrary append sequences every inclusion and consistency proof
   verifies, and any single tampered bit — in the leaf, the proof, or the
   claimed roots — makes verification fail.  Plus the log layer on top:
   canonical encoding round-trips, per-point dedup, signed heads. *)

open Rpki_transparency
module Sha256 = Rpki_crypto.Sha256

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 5000)

(* A deterministic batch of distinct leaves for a seed. *)
let leaves_of_seed seed =
  let rng = Rpki_util.Rng.create seed in
  let n = 1 + Rpki_util.Rng.int rng 64 in
  List.init n (fun i -> Printf.sprintf "leaf-%d-%d-%d" seed i (Rpki_util.Rng.int rng 1000))

let tree_of leaves =
  let t = Merkle.create () in
  List.iter (fun l -> ignore (Merkle.add t l)) leaves;
  t

(* Flip one bit of byte [i] (mod length). *)
let flip s i =
  let b = Bytes.of_string s in
  let i = i mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* --- Merkle unit tests --- *)

let test_empty_and_singleton () =
  let t = Merkle.create () in
  Alcotest.(check string) "empty root = H(\"\")" (Sha256.digest "") (Merkle.root t);
  ignore (Merkle.add t "a");
  Alcotest.(check string) "singleton root = leaf hash" (Merkle.leaf_hash "a") (Merkle.root t);
  ignore (Merkle.add t "b");
  let expect = Sha256.digest_list [ "\x01"; Merkle.leaf_hash "a"; Merkle.leaf_hash "b" ] in
  Alcotest.(check string) "two-leaf root = H(1||l||r)" expect (Merkle.root t)

let test_root_at_is_past_head () =
  let leaves = leaves_of_seed 42 in
  let t = tree_of leaves in
  List.iteri
    (fun i _ ->
      let prefix = tree_of (List.filteri (fun j _ -> j <= i) leaves) in
      Alcotest.(check string)
        (Printf.sprintf "root_at %d" (i + 1))
        (Merkle.root prefix)
        (Merkle.root_at t ~size:(i + 1)))
    leaves

(* --- Merkle properties --- *)

(* Every leaf of every tree has a verifying inclusion proof, under the full
   tree and under every past head covering it. *)
let prop_inclusion seed =
  let leaves = leaves_of_seed seed in
  let t = tree_of leaves in
  let n = Merkle.size t in
  let rng = Rpki_util.Rng.create (seed * 7) in
  List.for_all
    (fun index ->
      let size = index + 1 + Rpki_util.Rng.int rng (n - index) in
      let proof = Merkle.inclusion_proof t ~index ~size in
      Merkle.verify_inclusion ~leaf:(List.nth leaves index) ~index ~size
        ~root:(Merkle.root_at t ~size) proof)
    (List.init n (fun i -> i))

(* Every pair of heads of one log is consistency-provable. *)
let prop_consistency seed =
  let t = tree_of (leaves_of_seed seed) in
  let n = Merkle.size t in
  List.for_all
    (fun old_size ->
      let proof = Merkle.consistency_proof t ~old_size ~size:n in
      Merkle.verify_consistency ~old_size ~old_root:(Merkle.root_at t ~size:old_size) ~size:n
        ~root:(Merkle.root t) proof)
    (List.init n (fun i -> i + 1))

(* Tampering with the leaf, any single proof hash, or the root breaks
   inclusion verification. *)
let prop_inclusion_tamper_fails seed =
  let leaves = leaves_of_seed seed in
  let t = tree_of leaves in
  let n = Merkle.size t in
  let rng = Rpki_util.Rng.create (seed * 11) in
  let index = Rpki_util.Rng.int rng n in
  let leaf = List.nth leaves index in
  let root = Merkle.root t in
  let proof = Merkle.inclusion_proof t ~index ~size:n in
  let ok tampered_leaf tampered_root tampered_proof =
    Merkle.verify_inclusion ~leaf:tampered_leaf ~index ~size:n ~root:tampered_root
      tampered_proof
  in
  if not (ok leaf root proof) then QCheck.Test.fail_reportf "honest proof rejected (seed %d)" seed;
  if ok (flip leaf (Rpki_util.Rng.int rng 99)) root proof then
    QCheck.Test.fail_reportf "tampered leaf accepted (seed %d)" seed;
  if ok leaf (flip root (Rpki_util.Rng.int rng 99)) proof then
    QCheck.Test.fail_reportf "tampered root accepted (seed %d)" seed;
  List.iteri
    (fun i _ ->
      let tampered = List.mapi (fun j h -> if i = j then flip h 5 else h) proof in
      if ok leaf root tampered then
        QCheck.Test.fail_reportf "tampered proof hash %d accepted (seed %d)" i seed)
    proof;
  true

(* A forked history — one leaf changed below the old head — is not
   consistency-provable against the honest old root. *)
let prop_consistency_tamper_fails seed =
  let leaves = leaves_of_seed seed in
  let t = tree_of leaves in
  let n = Merkle.size t in
  let rng = Rpki_util.Rng.create (seed * 13) in
  let old_size = 1 + Rpki_util.Rng.int rng n in
  let old_root = Merkle.root_at t ~size:old_size in
  let proof = Merkle.consistency_proof t ~old_size ~size:n in
  let victim = Rpki_util.Rng.int rng old_size in
  let forked = tree_of (List.mapi (fun i l -> if i = victim then flip l 3 else l) leaves) in
  let forked_proof = Merkle.consistency_proof forked ~old_size ~size:n in
  if
    Merkle.verify_consistency ~old_size ~old_root ~size:n ~root:(Merkle.root forked)
      forked_proof
  then QCheck.Test.fail_reportf "forked history passed consistency (seed %d)" seed;
  if not (Merkle.verify_consistency ~old_size ~old_root ~size:n ~root:(Merkle.root t) proof)
  then QCheck.Test.fail_reportf "honest consistency rejected (seed %d)" seed;
  true

(* --- the subtree cache against a from-scratch reference --- *)

(* RFC 6962's MTH, PATH and SUBPROOF written directly over the leaf
   hashes, sharing nothing with the tree's cache.  [mth] is memoised on
   (lo, n) only to keep the all-pairs comparison below affordable. *)
let reference leaves =
  let hs = Array.of_list (List.map Merkle.leaf_hash leaves) in
  let memo = Hashtbl.create 1024 in
  let split n =
    let k = ref 1 in
    while !k * 2 < n do
      k := !k * 2
    done;
    !k
  in
  let node l r = Sha256.digest_list [ "\x01"; l; r ] in
  let rec mth lo n =
    if n = 0 then Sha256.digest ""
    else if n = 1 then hs.(lo)
    else
      match Hashtbl.find_opt memo (lo, n) with
      | Some h -> h
      | None ->
        let k = split n in
        let h = node (mth lo k) (mth (lo + k) (n - k)) in
        Hashtbl.replace memo (lo, n) h;
        h
  in
  let rec path m lo n =
    if n <= 1 then []
    else
      let k = split n in
      if m < k then path m lo k @ [ mth (lo + k) (n - k) ]
      else path (m - k) (lo + k) (n - k) @ [ mth lo k ]
  in
  let rec subproof m lo n flag =
    if m = n then if flag then [] else [ mth lo n ]
    else
      let k = split n in
      if m <= k then subproof m lo k flag @ [ mth (lo + k) (n - k) ]
      else subproof (m - k) (lo + k) (n - k) false @ [ mth lo k ]
  in
  ( (fun size -> mth 0 size),
    (fun ~index ~size -> path index 0 size),
    fun ~old_size ~size -> if old_size = size then [] else subproof old_size 0 size true )

(* The cached tree equals the reference: the root after every append, then
   root_at at every size, inclusion_proof for every (index, size) and
   consistency_proof for every (old, new).  Sizes up to 300 cross the 64,
   128 and 256 level boundaries. *)
let check_against_reference n seed =
  let rng = Rpki_util.Rng.create seed in
  let leaves = List.init n (fun i -> Printf.sprintf "l%d-%d" i (Rpki_util.Rng.int rng 1_000_000)) in
  let ref_root, ref_incl, ref_cons = reference leaves in
  let t = Merkle.create () in
  List.iteri
    (fun i l ->
      ignore (Merkle.add t l);
      if not (String.equal (Merkle.root t) (ref_root (i + 1))) then
        QCheck.Test.fail_reportf "root after %d appends differs (seed %d)" (i + 1) seed)
    leaves;
  for size = 0 to n do
    if not (String.equal (Merkle.root_at t ~size) (ref_root size)) then
      QCheck.Test.fail_reportf "root_at %d of %d differs (seed %d)" size n seed
  done;
  for size = 1 to n do
    for index = 0 to size - 1 do
      if Merkle.inclusion_proof t ~index ~size <> ref_incl ~index ~size then
        QCheck.Test.fail_reportf "inclusion_proof %d/%d of %d differs (seed %d)" index size n
          seed
    done;
    for old_size = 1 to size do
      if Merkle.consistency_proof t ~old_size ~size <> ref_cons ~old_size ~size then
        QCheck.Test.fail_reportf "consistency_proof %d->%d of %d differs (seed %d)" old_size
          size n seed
    done
  done;
  true

let prop_cache_equals_reference seed =
  check_against_reference (1 + (seed mod 300)) seed

let test_cache_equals_reference_300 () =
  Alcotest.(check bool) "300 leaves" true (check_against_reference 300 7)

(* --- Log layer --- *)

let obs ?(at = 1) ?(serial = 6) ?(uri = "rsync://a/repo") tag =
  { Log.ob_uri = uri; ob_serial = serial; ob_manifest_hash = Sha256.digest ("m" ^ tag);
    ob_vrp_hash = Sha256.digest ("v" ^ tag); ob_snapshot_fp = Sha256.digest ("f" ^ tag);
    ob_at = at }

let prop_observation_roundtrip seed =
  let rng = Rpki_util.Rng.create seed in
  let ob =
    obs
      ~at:(Rpki_util.Rng.int rng 1000)
      ~serial:(Rpki_util.Rng.int rng 1000)
      ~uri:(Printf.sprintf "rsync://host%d/repo:with\nodd\x00chars" seed)
      (string_of_int (Rpki_util.Rng.int rng 100000))
  in
  match Log.decode_observation (Log.encode_observation ob) with
  | Some ob' -> ob = ob'
  | None -> false

let test_append_dedup () =
  let l = Log.create ~log_id:"rp0" in
  (match Log.append l (obs "x") with
  | `Appended 0 -> ()
  | _ -> Alcotest.fail "first append");
  (* same state re-observed later: deduped *)
  (match Log.append l (obs ~at:9 "x") with
  | `Unchanged -> ()
  | _ -> Alcotest.fail "re-observation must dedup");
  (* changed state at the same serial: appended (the fork primitive) *)
  (match Log.append l (obs ~at:9 "y") with
  | `Appended 1 -> ()
  | _ -> Alcotest.fail "changed state must append");
  Alcotest.(check int) "size" 2 (Log.size l);
  (* find returns the first record under the conflict key *)
  match Log.find l ~uri:"rsync://a/repo" ~serial:6 with
  | Some (0, ob) -> Alcotest.(check int) "first at" 1 ob.Log.ob_at
  | _ -> Alcotest.fail "find"

let test_signed_head () =
  let l = Log.create ~log_id:"rp0" in
  ignore (Log.append l (obs "x"));
  let rng = Rpki_crypto.Drbg.to_rng (Rpki_crypto.Drbg.create ~seed:"test-sth") in
  let kp = Rpki_crypto.Rsa.generate ~bits:512 rng in
  let sth = Log.sign_head ~key:kp.Rpki_crypto.Rsa.private_ (Log.head l ~at:3) in
  Alcotest.(check bool) "signature verifies" true
    (Log.verify_head ~key:kp.Rpki_crypto.Rsa.public sth);
  let bad = { sth with Log.sh_sig = flip sth.Log.sh_sig 4 } in
  Alcotest.(check bool) "tampered signature fails" false
    (Log.verify_head ~key:kp.Rpki_crypto.Rsa.public bad);
  let forged =
    { sth with Log.sh_head = { sth.Log.sh_head with Log.h_size = 99 } }
  in
  Alcotest.(check bool) "tampered head fails" false
    (Log.verify_head ~key:kp.Rpki_crypto.Rsa.public forged)

let test_head_consistency_across_appends () =
  let l = Log.create ~log_id:"rp0" in
  let heads = ref [] in
  List.iter
    (fun i ->
      ignore (Log.append l (obs ~serial:i (string_of_int i)));
      heads := Log.head l ~at:i :: !heads)
    [ 1; 2; 3; 4; 5; 6; 7 ];
  let heads = List.rev !heads in
  let last = List.nth heads (List.length heads - 1) in
  List.iter
    (fun (old_head : Log.head) ->
      let proof = Log.consistency_proof l ~old_size:old_head.Log.h_size ~size:last.Log.h_size in
      Alcotest.(check bool)
        (Printf.sprintf "head %d -> head %d" old_head.Log.h_size last.Log.h_size)
        true
        (Log.verify_head_consistency ~old_head ~new_head:last proof))
    heads;
  (* a head from a different log never checks out *)
  let other = Log.create ~log_id:"rp1" in
  ignore (Log.append other (obs "1"));
  Alcotest.(check bool) "foreign log id rejected" false
    (Log.verify_head_consistency
       ~old_head:(Log.head other ~at:1)
       ~new_head:last
       (Log.consistency_proof l ~old_size:1 ~size:last.Log.h_size))

let test_observation_inclusion_via_head () =
  let l = Log.create ~log_id:"rp0" in
  List.iter (fun i -> ignore (Log.append l (obs ~serial:i (string_of_int i)))) [ 1; 2; 3; 4; 5 ];
  let head = Log.head l ~at:9 in
  List.iteri
    (fun i ob ->
      let proof = Log.inclusion_proof l ~index:i ~size:head.Log.h_size in
      Alcotest.(check bool) (Printf.sprintf "inclusion %d" i) true
        (Log.verify_observation_inclusion ob ~index:i ~head proof);
      let lie = { ob with Log.ob_vrp_hash = Sha256.digest "not-this" } in
      Alcotest.(check bool) (Printf.sprintf "forged observation %d" i) false
        (Log.verify_observation_inclusion lie ~index:i ~head proof))
    (Log.observations l)

let prop c n p = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:c ~name:n seed_gen p)

let () =
  Alcotest.run "transparency"
    [ ("merkle",
       [ Alcotest.test_case "empty and small trees" `Quick test_empty_and_singleton;
         Alcotest.test_case "root_at = past head" `Quick test_root_at_is_past_head;
         prop 30 "inclusion proofs verify for arbitrary appends" prop_inclusion;
         prop 30 "consistency proofs verify for arbitrary heads" prop_consistency;
         prop 30 "any inclusion tamper fails" prop_inclusion_tamper_fails;
         prop 30 "forked history fails consistency" prop_consistency_tamper_fails;
         prop 12 "subtree cache = from-scratch reference" prop_cache_equals_reference;
         Alcotest.test_case "subtree cache = reference at 300 leaves" `Quick
           test_cache_equals_reference_300 ]);
      ("log",
       [ prop 50 "observation encoding round-trips" prop_observation_roundtrip;
         Alcotest.test_case "append dedups unchanged states" `Quick test_append_dedup;
         Alcotest.test_case "signed heads" `Quick test_signed_head;
         Alcotest.test_case "head consistency across appends" `Quick
           test_head_consistency_across_appends;
         Alcotest.test_case "observation inclusion via head" `Quick
           test_observation_inclusion_via_head ]) ]
