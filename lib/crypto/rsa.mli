(** RSA signatures in the PKCS#1 v1.5 style, over {!Rpki_bignum}.

    Production RPKI mandates RSA-2048 with SHA-256 (RFC 7935); this
    implementation keeps the same signing pipeline (DigestInfo wrapping,
    type-01 padding, modular exponentiation) at a configurable modulus size,
    defaulting to 512 bits so that building large certificate hierarchies in
    tests stays cheap. *)

open Rpki_bignum

type public = { n : Nat.t; e : Nat.t }
type private_ = {
  pub : public;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t;  (** [d mod (p-1)] *)
  dq : Nat.t;  (** [d mod (q-1)] *)
  qinv : Nat.t;  (** [q{^-1} mod p] *)
}
(** The CRT parameters [dp], [dq], [qinv] are derived in {!generate}
    without drawing from the RNG, so a seed yields the same key as before
    they existed. *)

type keypair = { public : public; private_ : private_ }

val default_bits : int
(** 512. *)

val min_bits : int
(** The smallest modulus that can carry PKCS#1 v1.5 + SHA-256 DigestInfo. *)

val modulus_bytes : public -> int
(** Signature width in bytes. *)

val generate : ?bits:int -> Rpki_util.Rng.t -> keypair
(** Deterministic keygen from the given RNG; [e = 65537].
    Raises [Invalid_argument] below {!min_bits}. *)

val sign : key:private_ -> string -> string
(** Sign the SHA-256 digest of the message; the result is exactly
    [modulus_bytes] long.  Computed by CRT (two half-size exponentiations
    and Garner recombination); the bytes equal [em^d mod n] for the
    PKCS#1 v1.5 encoding [em]. *)

val verify : key:public -> signature:string -> string -> bool
(** Verify a signature over a message. Never raises. *)

val verification_count : unit -> int
(** Number of {!verify} calls executed since process start — a monotonic
    global counter, atomic, so calls from several Domains are all counted.
    Benchmarks diff it around a region to audit how much signature
    checking a configuration actually performed. *)

val key_id : public -> string
(** A stable 32-byte identifier for a public key (the profile's analogue of
    the Subject Key Identifier). *)

val pp_public : Format.formatter -> public -> unit

val equal_public : public -> public -> bool
