(** RFC 6962-style Merkle hash trees over {!Rpki_crypto.Sha256}.

    The transparency log's cryptographic core: an append-only sequence of
    leaves committed to by a single 32-byte root, with O(log n) {e inclusion}
    proofs ("this leaf is in the tree of size n") and {e consistency} proofs
    ("the tree of size n extends the tree of size m") — the two primitives
    that make a publication history verifiable without trusting its keeper.

    Hashing is domain-separated exactly as in RFC 6962 section 2.1: a leaf
    hashes as [H(0x00 || leaf)], an interior node as [H(0x01 || l || r)],
    and the split point of a tree of size n is the largest power of two
    strictly below n.  The empty tree hashes to [H("")].

    The tree caches every completed perfect subtree hash as leaves arrive,
    so {!root}, {!root_at} and proof {e generation} are O(log n) — lookups
    plus a few hashes along the ragged right edge.  Proof {e size} is what
    the experiments report, and that is O(log n) by construction.  Only
    hashes are kept; the raw leaf bytes are the caller's to store. *)

type t
(** A mutable append-only tree. *)

val create : unit -> t

val add : t -> string -> int
(** Append a leaf (raw bytes); returns its index.  Amortised one leaf hash
    plus one interior-node hash. *)

val size : t -> int

val leaf_hash : string -> string
(** [H(0x00 || leaf)]. *)

val root : t -> string
(** Root over the whole current tree. *)

val root_at : t -> size:int -> string
(** Root over the first [size] leaves (a past head of the same log).
    Raises [Invalid_argument] when [size] exceeds the tree. *)

type proof = string list
(** An audit path: sibling hashes, leaf-to-root order. *)

val proof_bytes : proof -> int
(** Wire size of a proof (32 bytes per hash). *)

val inclusion_proof : t -> index:int -> size:int -> proof
(** The RFC 6962 PATH(index, D[0:size]).  Raises [Invalid_argument] unless
    [0 <= index < size <= size t]. *)

val verify_inclusion :
  leaf:string -> index:int -> size:int -> root:string -> proof -> bool
(** Does [proof] connect [H(0x00 || leaf)] at [index] to [root] over a tree
    of [size] leaves?  Never raises. *)

val consistency_proof : t -> old_size:int -> size:int -> proof
(** The RFC 6962 PROOF(old_size, D[0:size]).  Raises [Invalid_argument]
    unless [0 < old_size <= size <= size t]. *)

val verify_consistency :
  old_size:int ->
  old_root:string ->
  size:int ->
  root:string ->
  proof ->
  bool
(** Does [proof] show that the tree of [size] leaves with head [root] is an
    append-only extension of the tree of [old_size] leaves with head
    [old_root]?  [old_size = 0] is vacuously consistent with anything (the
    proof must be empty); [old_size = size] demands equal roots.  Never
    raises. *)
