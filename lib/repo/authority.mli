(** A stateful RPKI authority (certification authority).

    Owns a keypair, an RC signed by its parent (or self-signed for a trust
    anchor), and a publication point holding everything it has issued: child
    RCs, ROAs, its CRL and its manifest (RFC 6481 layout).

    All legitimate operations {e and} all of the paper's manipulations are
    methods here — a misbehaving authority is just an authority whose owner
    calls the wrong methods, which is exactly the paper's point. *)

open Rpki_core
open Rpki_crypto

type t
(** Opaque; every state change flows through the operations below, so the
    publication point is always republished consistently. *)

val name : t -> string

val key : t -> Rsa.keypair
(** The current CA keypair (changes across RFC 6489 key rollover). *)

val ee_key : t -> Rsa.keypair
(** Reused for EE certificates; reuse is permitted and cuts keygen cost. *)

val cert : t -> Cert.t
(** The current RC (parent-signed, or self-signed for a trust anchor). *)

val parent : t -> t option
val pub : t -> Pub_point.t
val children : t -> t list

val roas : t -> (string * Roa.t) list
(** Currently issued ROAs, filename first. *)

val revoked : t -> int list
(** Serials on this authority's CRL. *)

val crl_filename : t -> string
val manifest_filename : t -> string
val cert_filename : string -> string

val default_validity : int
val default_refresh : int

val create_trust_anchor :
  name:string ->
  resources:Resources.t ->
  uri:string ->
  addr:Rpki_ip.Addr.V4.t ->
  host_asn:int ->
  now:Rtime.t ->
  universe:Universe.t ->
  ?key_bits:int ->
  ?validity:int ->
  ?refresh_interval:int ->
  unit ->
  t

val tal : t -> string * Rsa.public * string * string
(** [(name, public key, repository URI, certificate filename)] — what a
    relying party needs to start from this trust anchor.  Raises
    [Invalid_argument] on a non-root authority. *)

val create_child :
  t ->
  name:string ->
  resources:Resources.t ->
  uri:string ->
  addr:Rpki_ip.Addr.V4.t ->
  host_asn:int ->
  now:Rtime.t ->
  universe:Universe.t ->
  ?key_bits:int ->
  ?validity:int ->
  ?refresh_interval:int ->
  unit ->
  t
(** Issue a child CA with its own key, certificate and publication point. *)

val issue_roa :
  t ->
  asid:int ->
  v4_entries:Roa.v4_entry list ->
  ?v6_entries:Roa.v6_entry list ->
  now:Rtime.t ->
  unit ->
  string * Roa.t
(** Issue and publish a ROA; returns its filename. *)

val issue_simple_roa :
  t ->
  asid:int ->
  prefix:Rpki_ip.V4.Prefix.t ->
  ?max_len:int ->
  now:Rtime.t ->
  unit ->
  string * Roa.t

(** {2 Legitimate maintenance} *)

val refresh : t -> now:Rtime.t -> unit
(** Re-sign the CRL and manifest with fresh windows. *)

val renew_roa : t -> filename:string -> now:Rtime.t -> Roa.t
(** Re-sign an expiring ROA in place. *)

val maintain : t -> now:Rtime.t -> unit
(** Full upkeep of the whole subtree rooted here: re-sign every ROA and
    refresh every CRL/manifest window — a healthy operator's cron job.  The
    stall experiments run it every tick, so only a relying party that cannot
    {e fetch} sees objects age toward expiry. *)

val roll_key : t -> now:Rtime.t -> unit
(** RFC 6489 key rollover: new keypair, new RC from the parent (old serial
    revoked), every issued object re-signed.  Filenames persist. *)

(** {2 The fault corpus's authority-side misbehaviors}

    The real RPKI's background noise (the SNIPPETS.md RP error corpus):
    authorities that keep their publication point self-consistent while
    violating one currency or containment rule.  Fed by the weighted
    sampler in {!Fault_corpus} / {!Fault_mix}. *)

val expire_crl : t -> now:Rtime.t -> unit
(** Publish a CRL whose nextUpdate is already past (47x "CRL has expired").
    The manifest is regenerated over it, so the lapsed window is the only
    fault.  {!refresh} repairs. *)

val expire_roa : t -> filename:string -> now:Rtime.t -> unit
(** Re-sign a ROA with an already-closed validity window (13x "certificate
    has expired").  {!renew_roa} repairs. *)

val postdate_roa : t -> filename:string -> delay:int -> now:Rtime.t -> unit
(** Re-sign a ROA forward-dated by [delay] ticks (7x "not yet valid").
    {!renew_roa} repairs. *)

val skip_manifest_numbers : t -> gap:int -> now:Rtime.t -> unit
(** Jump the manifest number forward by [gap] (18x "seqnum gap detected"). *)

val regress_manifest_number : t -> by:int -> now:Rtime.t -> unit
(** Publish with a manifest number [by] lower than the last one served (2x
    "manifest numbers lower than expected"). *)

val overclaim_roa : t -> asid:int -> prefix:Rpki_ip.V4.Prefix.t -> now:Rtime.t -> string
(** Issue a ROA for space outside this authority's own certificate (7x
    "RFC 3779 resource not subset of parent's resources").  Returns the
    filename; {!revoke_roa} repairs. *)

val withhold_manifest : t -> unit
(** Stop serving a manifest (20x "no valid manifest available") without
    touching anything else.  {!refresh} repairs. *)

(** {2 The paper's manipulations (Section 3)} *)

val revoke_child : t -> t -> now:Rtime.t -> unit
(** Overt revocation of a child RC via the CRL (Side Effect 1). *)

val revoke_roa : t -> filename:string -> now:Rtime.t -> unit
(** Overt revocation of a ROA's EE certificate. *)

val stealth_delete_roa : t -> filename:string -> now:Rtime.t -> unit
(** Side Effect 2: delete the object, leave the CRL untouched.  The manifest
    is regenerated — the authority controls it, so nothing looks locally
    inconsistent. *)

val stealth_delete_child_cert : t -> t -> now:Rtime.t -> unit

val shrink_child_cert : t -> t -> resources:Resources.t -> now:Rtime.t -> Cert.t
(** Overwrite a child's RC with one for a different resource set — the
    primitive behind targeted whacking (Side Effect 3).  Stealthy: no CRL
    entry. *)

val certify_key :
  t ->
  subject:string ->
  public_key:Rsa.public ->
  resources:Resources.t ->
  repo_uri:string ->
  manifest_uri:string ->
  now:Rtime.t ->
  string * Cert.t
(** Certify another authority's existing key directly — the "reissue the
    damaged descendant objects as its own" step of make-before-break
    (Figure 3). *)

(** {2 Traversal} *)

val iter_descendants : t -> f:(t -> unit) -> unit
val find_descendant : t -> name:string -> t option

val pp : Format.formatter -> t -> unit
