(* RSA signatures in the PKCS#1 v1.5 style, built on [Rpki_bignum].

   Production RPKI mandates RSA-2048 with SHA-256 (RFC 6485/7935).  We keep
   the same signature pipeline (DigestInfo wrapping, type-01 padding, modular
   exponentiation) at a configurable modulus size, defaulting to 512 bits so
   that building thousand-certificate hierarchies in tests stays cheap.  The
   substitution is documented in DESIGN.md.

   Signing uses the Chinese Remainder Theorem: two half-size exponentiations
   mod p and mod q, recombined with Garner's formula.  The result is the
   unique residue mod n that m^d mod n also is, so signatures are the same
   bytes as the textbook m^d mod n — PKCS#1 v1.5 is deterministic. *)

open Rpki_bignum

type public = { n : Nat.t; e : Nat.t }
type private_ = {
  pub : public;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t; (* d mod (p-1) *)
  dq : Nat.t; (* d mod (q-1) *)
  qinv : Nat.t; (* q^-1 mod p *)
}

type keypair = { public : public; private_ : private_ }

let default_bits = 512

let modulus_bytes pub = (Nat.num_bits pub.n + 7) / 8

(* Deterministic keygen from a DRBG-seeded RNG. *)
let min_bits = 496 (* smallest modulus that fits PKCS#1 v1.5 + DigestInfo *)

let generate ?(bits = default_bits) rng =
  if bits < min_bits then
    invalid_arg (Printf.sprintf "Rsa.generate: %d-bit modulus cannot carry SHA-256 PKCS#1 padding (min %d)" bits min_bits);
  let e = Nat.of_int 65537 in
  let half = bits / 2 in
  let rec go () =
    let p = Prime.generate rng ~bits:half in
    let q = Prime.generate rng ~bits:(bits - half) in
    if Nat.equal p q then go ()
    else begin
      let n = Nat.mul p q in
      let phi = Nat.mul (Nat.pred p) (Nat.pred q) in
      match Zint.mod_inverse e ~modulus:phi with
      | None -> go ()
      | Some d ->
        if Nat.num_bits n <> bits then go ()
        else
          match Zint.mod_inverse q ~modulus:p with
          | None -> go () (* unreachable: distinct primes are coprime *)
          | Some qinv ->
            let pub = { n; e } in
            let dp = Nat.rem d (Nat.pred p) and dq = Nat.rem d (Nat.pred q) in
            { public = pub; private_ = { pub; d; p; q; dp; dq; qinv } }
    end
  in
  go ()

(* DigestInfo prefix for SHA-256 (RFC 8017 section 9.2 notes). *)
let sha256_digest_info =
  "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"

(* EMSA-PKCS1-v1_5 encoding of a message digest into [len] bytes. *)
let pkcs1_encode digest len =
  let t = sha256_digest_info ^ digest in
  let tlen = String.length t in
  if len < tlen + 11 then invalid_arg "Rsa.pkcs1_encode: modulus too small";
  "\x00\x01" ^ String.make (len - tlen - 3) '\xff' ^ "\x00" ^ t

let sign ~key msg =
  let digest = Sha256.digest msg in
  let len = modulus_bytes key.pub in
  let em = Nat.of_bytes_be (pkcs1_encode digest len) in
  let m1 = Nat.pow_mod ~base:(Nat.rem em key.p) ~exp:key.dp ~modulus:key.p in
  let m2 = Nat.pow_mod ~base:(Nat.rem em key.q) ~exp:key.dq ~modulus:key.q in
  (* Garner: s = m2 + q·(qinv·(m1 - m2) mod p), in [0, n) *)
  let diff = Nat.sub (Nat.add m1 key.p) (Nat.rem m2 key.p) in
  let h = Nat.rem (Nat.mul key.qinv diff) key.p in
  let s = Nat.add m2 (Nat.mul h key.q) in
  Nat.to_bytes_be_padded s len

(* Global count of RSA verifications actually performed — the ground truth
   the multi-vantage benchmark audits cache-on and cache-off runs against.
   Atomic, so verifying from several Domains never loses a count. *)
let verifications = Atomic.make 0

let verification_count () = Atomic.get verifications

let verify ~key ~signature msg =
  Atomic.incr verifications;
  let len = modulus_bytes key in
  if String.length signature <> len then false
  else begin
    let s = Nat.of_bytes_be signature in
    if not (Nat.lt s key.n) then false
    else begin
      let em = Nat.pow_mod ~base:s ~exp:key.e ~modulus:key.n in
      let expected = Nat.of_bytes_be (pkcs1_encode (Sha256.digest msg) len) in
      Nat.equal em expected
    end
  end

(* Stable identifier for a public key: SHA-256 of its canonical encoding,
   analogous to the RPKI's Subject Key Identifier. *)
let key_id pub =
  let nb = Nat.to_bytes_be pub.n and eb = Nat.to_bytes_be pub.e in
  Sha256.digest (Printf.sprintf "%d:%s:%d:%s" (String.length nb) nb (String.length eb) eb)

let pp_public fmt pub =
  Format.fprintf fmt "rsa-%d:%s" (Nat.num_bits pub.n) (Rpki_util.Hex.abbrev (key_id pub))

let equal_public a b = Nat.equal a.n b.n && Nat.equal a.e b.e
