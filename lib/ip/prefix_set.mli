(** Prefixes, inclusive ranges, normalized resource sets, and LPM tries over
    any address family.

    RFC 3779 resource extensions are arbitrary unions of address ranges, and
    the paper's whacking attacks are exactly set algebra — "reissue the
    child's RC for (child resources) minus (target ROA prefixes)" — so
    the [Set] submodule supports exact union / intersection / difference /
    containment on canonical range lists. *)

module Make (A : Addr.S) : sig
  type addr = A.t

  (** CIDR prefixes, kept canonical (host bits zero). *)
  module Prefix : sig
    type t

    val make : addr -> int -> t
    (** [make addr len] canonicalizes by masking host bits.
        Raises [Invalid_argument] on a bad length. *)

    val addr : t -> addr
    val len : t -> int

    val first : t -> addr
    (** Lowest covered address. *)

    val last : t -> addr
    (** Highest covered address. *)

    val compare : t -> t -> int
    val equal : t -> t -> bool

    val covers : t -> t -> bool
    (** [covers p q]: [q]'s address space is a (non-strict) subset of
        [p]'s — the paper's "P covers π". *)

    val contains_addr : t -> addr -> bool

    val split : t -> t * t
    (** The two length+1 halves. Raises [Invalid_argument] on a host
        prefix. *)

    val to_string : t -> string

    val of_string : string -> t option
    (** Parses ["a.b.c.d/len"]; rejects non-canonical prefixes such as
        10.0.0.1/8. *)

    val of_string_exn : string -> t
    val pp : Format.formatter -> t -> unit
  end

  (** Inclusive address ranges. *)
  module Range : sig
    type t

    val make : addr -> addr -> t
    (** Raises [Invalid_argument] when [lo > hi]. *)

    val lo : t -> addr
    val hi : t -> addr
    val of_prefix : Prefix.t -> t
    val compare : t -> t -> int
    val equal : t -> t -> bool
    val contains_addr : t -> addr -> bool
    val subset : t -> t -> bool
    val overlaps : t -> t -> bool

    val to_prefixes : t -> Prefix.t list
    (** Minimal CIDR decomposition. *)

    val to_string : t -> string

    val of_string : string -> t option
    (** Parses ["lo-hi"] or a bare prefix. *)

    val pp : Format.formatter -> t -> unit
  end

  (** Normalized resource sets: sorted, disjoint, maximally merged ranges. *)
  module Set : sig
    type t

    val empty : t
    val is_empty : t -> bool
    val of_ranges : Range.t list -> t
    val of_prefixes : Prefix.t list -> t
    val of_prefix : Prefix.t -> t
    val of_range : Range.t -> t

    val full : t
    (** The whole address space. *)

    val to_ranges : t -> Range.t list
    val to_prefixes : t -> Prefix.t list
    val union : t -> t -> t
    val inter : t -> t -> t

    val diff : t -> t -> t
    (** [diff a b] is [a \ b] — the whack-planning primitive. *)

    val equal : t -> t -> bool
    val subset : t -> t -> bool
    val overlaps : t -> t -> bool
    val mem_addr : t -> addr -> bool
    val mem_prefix : t -> Prefix.t -> bool

    val cardinal_opt : t -> int option
    (** Number of addresses when it fits in an int (always for IPv4). *)

    val to_string : t -> string
    val pp : Format.formatter -> t -> unit
  end

  (** Binary trie keyed by prefixes: the index for route tables and
      route-origin validation. *)
  module Trie : sig
    type 'a t

    val empty : 'a t
    val insert : 'a t -> Prefix.t -> 'a -> 'a t

    val insert_with : combine:('a -> 'a -> 'a) -> 'a t -> Prefix.t -> 'a -> 'a t
    (** Like {!insert} but merges with an existing value. *)

    val remove : 'a t -> Prefix.t -> 'a t
    val find_exact : 'a t -> Prefix.t -> 'a option

    val longest_match : 'a t -> Prefix.t -> (Prefix.t * 'a) option
    (** The deepest entry whose prefix covers the query. *)

    val covering : 'a t -> Prefix.t -> (Prefix.t * 'a) list
    (** Entries whose prefix covers the query, shortest first. *)

    val covered : 'a t -> Prefix.t -> (Prefix.t * 'a) list
    (** Entries covered by the query. *)

    val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
    val to_list : 'a t -> (Prefix.t * 'a) list
    val cardinal : 'a t -> int
    val of_list : (Prefix.t * 'a) list -> 'a t
  end
end
