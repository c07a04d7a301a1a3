(* Tests for SHA-256, HMAC, HMAC-DRBG and RSA against published vectors. *)

open Rpki_crypto

(* --- SHA-256 (FIPS 180-4 / NIST CAVP vectors) --- *)

let sha_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb") ]

let test_sha_vectors () =
  List.iter
    (fun (msg, want) -> Alcotest.(check string) (String.sub want 0 8) want (Sha256.hexdigest msg))
    sha_vectors

let test_sha_million_a () =
  Alcotest.(check string) "10^6 x a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hexdigest (String.make 1_000_000 'a'))

let test_sha_boundary_lengths () =
  (* padding boundaries: 55, 56, 63, 64, 65 bytes *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.hexdigest s)
        (Rpki_util.Hex.of_string (Sha256.finish ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 129 ]

let prop_incremental =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"chunked feed = one shot"
       QCheck.(pair (string_of_size (Gen.int_bound 300)) (int_bound 300))
       (fun (s, cut) ->
         let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
         let ctx = Sha256.init () in
         Sha256.feed ctx (String.sub s 0 cut);
         Sha256.feed ctx (String.sub s cut (String.length s - cut));
         String.equal (Sha256.finish ctx) (Sha256.digest s)))

(* --- HMAC (RFC 4231) --- *)

let test_hmac_rfc4231 () =
  let check name key data want = Alcotest.(check string) name want (Hmac.hex ~key data) in
  check "case 1" (String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "case 2" "Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "case 3" (String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  (* case 6: key longer than a block *)
  check "case 6" (String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

let test_hmac_equal_digest () =
  Alcotest.(check bool) "equal" true (Hmac.equal_digest "abc" "abc");
  Alcotest.(check bool) "unequal" false (Hmac.equal_digest "abc" "abd");
  Alcotest.(check bool) "length mismatch" false (Hmac.equal_digest "abc" "abcd")

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed-1" and b = Drbg.create ~seed:"seed-1" in
  Alcotest.(check string) "same seed, same stream" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"seed-2" in
  Alcotest.(check bool) "different seed" false
    (String.equal (Drbg.generate (Drbg.create ~seed:"seed-1") 64) (Drbg.generate c 64))

let test_drbg_reseed () =
  let a = Drbg.create ~seed:"seed-1" in
  let before = Drbg.generate a 32 in
  Drbg.reseed a ~seed:"more entropy";
  let after = Drbg.generate a 32 in
  Alcotest.(check bool) "stream changes" false (String.equal before after)

let test_drbg_requests_span_blocks () =
  (* one big request equals nothing in particular, but lengths must be exact *)
  let a = Drbg.create ~seed:"x" in
  List.iter (fun n -> Alcotest.(check int) "length" n (String.length (Drbg.generate a n)))
    [ 1; 31; 32; 33; 64; 100 ]

(* --- RSA --- *)

let keypair =
  lazy (Rsa.generate (Drbg.to_rng (Drbg.create ~seed:"test-rsa-keypair")))

let test_rsa_roundtrip () =
  let kp = Lazy.force keypair in
  let msg = "the quick brown fox" in
  let s = Rsa.sign ~key:kp.Rsa.private_ msg in
  Alcotest.(check bool) "verifies" true (Rsa.verify ~key:kp.Rsa.public ~signature:s msg);
  Alcotest.(check int) "signature width" (Rsa.modulus_bytes kp.Rsa.public) (String.length s)

let test_rsa_rejects_tamper () =
  let kp = Lazy.force keypair in
  let msg = "attack at dawn" in
  let s = Rsa.sign ~key:kp.Rsa.private_ msg in
  Alcotest.(check bool) "wrong msg" false (Rsa.verify ~key:kp.Rsa.public ~signature:s "attack at dusk");
  let s' = Bytes.of_string s in
  Bytes.set s' 3 (Char.chr (Char.code (Bytes.get s' 3) lxor 0x40));
  Alcotest.(check bool) "flipped bit" false
    (Rsa.verify ~key:kp.Rsa.public ~signature:(Bytes.to_string s') msg);
  Alcotest.(check bool) "truncated" false
    (Rsa.verify ~key:kp.Rsa.public ~signature:(String.sub s 0 (String.length s - 1)) msg)

let test_rsa_wrong_key () =
  let kp = Lazy.force keypair in
  let other = Rsa.generate (Drbg.to_rng (Drbg.create ~seed:"another key")) in
  let s = Rsa.sign ~key:kp.Rsa.private_ "msg" in
  Alcotest.(check bool) "other key" false (Rsa.verify ~key:other.Rsa.public ~signature:s "msg")

let test_rsa_deterministic_keygen () =
  let a = Rsa.generate (Drbg.to_rng (Drbg.create ~seed:"same")) in
  let b = Rsa.generate (Drbg.to_rng (Drbg.create ~seed:"same")) in
  Alcotest.(check bool) "same key" true (Rsa.equal_public a.Rsa.public b.Rsa.public);
  Alcotest.(check string) "same key id" (Rsa.key_id a.Rsa.public) (Rsa.key_id b.Rsa.public)

let test_rsa_min_bits () =
  Alcotest.(check bool) "too small raises" true
    (try
       ignore (Rsa.generate ~bits:256 (Drbg.to_rng (Drbg.create ~seed:"small")));
       false
     with Invalid_argument _ -> true)

let prop_rsa_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"sign/verify roundtrip"
       QCheck.(string_of_size (Gen.int_bound 200))
       (fun msg ->
         let kp = Lazy.force keypair in
         Rsa.verify ~key:kp.Rsa.public ~signature:(Rsa.sign ~key:kp.Rsa.private_ msg) msg))

(* CRT signing against the textbook definition: the signature is
   em^d mod n for the PKCS#1 v1.5 encoding em, built here independently of
   the library.  Four seeded keys, including odd widths where p and q
   differ in size. *)
let crt_keys =
  Array.map
    (fun (bits, seed) -> lazy (Rsa.generate ~bits (Drbg.to_rng (Drbg.create ~seed))))
    [| (512, "crt-a"); (512, "crt-b"); (521, "crt-c"); (Rsa.min_bits, "crt-d") |]

let textbook_sign (key : Rsa.private_) msg =
  let module Nat = Rpki_bignum.Nat in
  let len = Rsa.modulus_bytes key.Rsa.pub in
  let t =
    "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"
    ^ Sha256.digest msg
  in
  let em = "\x00\x01" ^ String.make (len - String.length t - 3) '\xff' ^ "\x00" ^ t in
  Nat.to_bytes_be_padded
    (Nat.pow_mod ~base:(Nat.of_bytes_be em) ~exp:key.Rsa.d ~modulus:key.Rsa.pub.Rsa.n)
    len

let prop_rsa_crt_equals_textbook =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"CRT sign = em^d mod n"
       QCheck.(pair small_nat (string_of_size (Gen.int_bound 300)))
       (fun (k, msg) ->
         let kp = Lazy.force crt_keys.(k mod Array.length crt_keys) in
         String.equal (Rsa.sign ~key:kp.Rsa.private_ msg) (textbook_sign kp.Rsa.private_ msg)))

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
          Alcotest.test_case "million a" `Slow test_sha_million_a;
          Alcotest.test_case "padding boundaries" `Quick test_sha_boundary_lengths;
          prop_incremental ] );
      ( "hmac",
        [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "constant-time equality" `Quick test_hmac_equal_digest ] );
      ( "drbg",
        [ Alcotest.test_case "determinism" `Quick test_drbg_deterministic;
          Alcotest.test_case "reseed" `Quick test_drbg_reseed;
          Alcotest.test_case "request sizes" `Quick test_drbg_requests_span_blocks ] );
      ( "rsa",
        [ Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "tamper rejection" `Quick test_rsa_rejects_tamper;
          Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
          Alcotest.test_case "deterministic keygen" `Quick test_rsa_deterministic_keygen;
          Alcotest.test_case "minimum modulus" `Quick test_rsa_min_bits;
          prop_rsa_roundtrip;
          prop_rsa_crt_equals_textbook ] ) ]
