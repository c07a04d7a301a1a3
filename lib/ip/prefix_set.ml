(* Prefixes, inclusive ranges, and normalized resource sets over any address
   family.

   RFC 3779 resource extensions are arbitrary unions of address ranges, and
   the paper's whacking attacks are exactly set algebra: "reissue the child's
   RC for (child resources) minus (target ROA prefixes)".  [Set] therefore
   supports exact union / intersection / difference / containment on
   sorted, disjoint, maximally-merged range lists. *)

module Make (A : Addr.S) = struct
  type addr = A.t

  module Prefix = struct
    type t = { addr : A.t; len : int }
    (* invariant: 0 <= len <= A.bits and the host bits of [addr] are zero *)

    let make addr len =
      if len < 0 || len > A.bits then invalid_arg "Prefix.make: bad length";
      { addr = A.network addr len; len }

    let addr t = t.addr
    let len t = t.len
    let first t = t.addr
    let last t = A.broadcast t.addr t.len

    let compare a b =
      let c = A.compare a.addr b.addr in
      if c <> 0 then c else Stdlib.compare a.len b.len

    let equal a b = compare a b = 0

    (* [covers p q]: q's address space is a (non-strict) subset of p's. *)
    let covers p q = p.len <= q.len && A.equal (A.network q.addr p.len) p.addr

    let contains_addr p a = A.equal (A.network a p.len) p.addr

    (* The two halves of a prefix; undefined at maximum length. *)
    let split p =
      if p.len >= A.bits then invalid_arg "Prefix.split: host prefix";
      let left = { addr = p.addr; len = p.len + 1 } in
      let right = { addr = A.set_bit p.addr p.len; len = p.len + 1 } in
      (left, right)

    let to_string p = Printf.sprintf "%s/%d" (A.to_string p.addr) p.len

    let of_string s =
      match String.rindex_opt s '/' with
      | None -> None
      | Some i -> (
        let addr_s = String.sub s 0 i in
        let len_s = String.sub s (i + 1) (String.length s - i - 1) in
        match (A.of_string addr_s, int_of_string_opt len_s) with
        | Some addr, Some len when len >= 0 && len <= A.bits ->
          (* reject non-canonical prefixes like 10.0.0.1/8 *)
          if A.equal (A.network addr len) addr then Some { addr; len } else None
        | _ -> None)

    let of_string_exn s =
      match of_string s with
      | Some p -> p
      | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

    let pp fmt p = Format.pp_print_string fmt (to_string p)
  end

  module Range = struct
    type t = { lo : A.t; hi : A.t } (* inclusive; invariant lo <= hi *)

    let make lo hi =
      if A.compare lo hi > 0 then invalid_arg "Range.make: lo > hi";
      { lo; hi }

    let lo t = t.lo
    let hi t = t.hi
    let of_prefix (p : Prefix.t) = { lo = Prefix.first p; hi = Prefix.last p }

    let compare a b =
      let c = A.compare a.lo b.lo in
      if c <> 0 then c else A.compare a.hi b.hi

    let equal a b = compare a b = 0
    let contains_addr r a = A.compare r.lo a <= 0 && A.compare a r.hi <= 0
    let subset inner outer = A.compare outer.lo inner.lo <= 0 && A.compare inner.hi outer.hi <= 0
    let overlaps a b = A.compare a.lo b.hi <= 0 && A.compare b.lo a.hi <= 0

    (* Minimal CIDR decomposition of an arbitrary range. *)
    let to_prefixes r =
      let rec fit lo len =
        if len = 0 then len
        else if A.equal (A.network lo (len - 1)) lo && A.compare (A.broadcast lo (len - 1)) r.hi <= 0
        then fit lo (len - 1)
        else len
      in
      let rec go lo acc =
        let len = fit lo A.bits in
        let p = Prefix.make lo len in
        let top = Prefix.last p in
        if A.compare top r.hi >= 0 then List.rev (p :: acc) else go (A.succ top) (p :: acc)
      in
      go r.lo []

    let to_string r = Printf.sprintf "%s-%s" (A.to_string r.lo) (A.to_string r.hi)

    let of_string s =
      match String.index_opt s '-' with
      | None -> (
        (* allow a bare prefix as a range *)
        match Prefix.of_string s with Some p -> Some (of_prefix p) | None -> None)
      | Some i -> (
        let lo_s = String.sub s 0 i and hi_s = String.sub s (i + 1) (String.length s - i - 1) in
        match (A.of_string lo_s, A.of_string hi_s) with
        | Some lo, Some hi when A.compare lo hi <= 0 -> Some { lo; hi }
        | _ -> None)

    let pp fmt r = Format.pp_print_string fmt (to_string r)
  end

  module Set = struct
    type t = Range.t list
    (* invariant: sorted by lo, pairwise disjoint, and no two ranges are
       mergeable (adjacent or overlapping) *)

    let empty : t = []
    let is_empty t = t = []

    (* Sort + merge overlapping/adjacent ranges into canonical form. *)
    let normalize ranges : t =
      let sorted = List.sort Range.compare ranges in
      let merge acc (r : Range.t) =
        match acc with
        | [] -> [ r ]
        | (cur : Range.t) :: rest ->
          let adjacent =
            A.compare cur.Range.hi A.max_addr < 0 && A.compare (A.succ cur.Range.hi) r.Range.lo >= 0
          in
          if A.compare r.Range.lo cur.Range.hi <= 0 || adjacent then begin
            let hi = if A.compare cur.Range.hi r.Range.hi >= 0 then cur.Range.hi else r.Range.hi in
            Range.make cur.Range.lo hi :: rest
          end
          else r :: acc
      in
      List.rev (List.fold_left merge [] sorted)

    let of_ranges rs = normalize rs
    let of_prefixes ps = normalize (List.map Range.of_prefix ps)
    let of_prefix p = [ Range.of_prefix p ]
    let of_range r : t = [ r ]
    let full : t = [ Range.make A.zero A.max_addr ]

    let to_ranges (t : t) = t
    let to_prefixes t = List.concat_map Range.to_prefixes t

    let union a b = normalize (a @ b)

    let inter (a : t) (b : t) : t =
      let rec go a b acc =
        match (a, b) with
        | [], _ | _, [] -> List.rev acc
        | (ra : Range.t) :: ta, (rb : Range.t) :: tb ->
          let lo = if A.compare ra.Range.lo rb.Range.lo >= 0 then ra.Range.lo else rb.Range.lo in
          let hi = if A.compare ra.Range.hi rb.Range.hi <= 0 then ra.Range.hi else rb.Range.hi in
          let acc = if A.compare lo hi <= 0 then Range.make lo hi :: acc else acc in
          if A.compare ra.Range.hi rb.Range.hi < 0 then go ta b acc else go a tb acc
      in
      go a b []

    (* a \ b *)
    let diff (a : t) (b : t) : t =
      let rec go a b acc =
        match a with
        | [] -> List.rev acc
        | (ra : Range.t) :: ta -> (
          match b with
          | [] -> List.rev_append acc a
          | (rb : Range.t) :: tb ->
            if A.compare rb.Range.hi ra.Range.lo < 0 then go a tb acc
            else if A.compare ra.Range.hi rb.Range.lo < 0 then go ta b (ra :: acc)
            else begin
              (* overlap: keep the part of ra before rb, requeue the part after *)
              let acc =
                if A.compare ra.Range.lo rb.Range.lo < 0 then
                  Range.make ra.Range.lo (A.pred rb.Range.lo) :: acc
                else acc
              in
              if A.compare rb.Range.hi ra.Range.hi < 0 then
                go (Range.make (A.succ rb.Range.hi) ra.Range.hi :: ta) tb acc
              else go ta b acc
            end)
      in
      go a b []

    let equal (a : t) (b : t) = List.length a = List.length b && List.for_all2 Range.equal a b
    let subset a b = is_empty (diff a b)
    let overlaps a b = not (is_empty (inter a b))
    let mem_addr t a = List.exists (fun r -> Range.contains_addr r a) t
    let mem_prefix t p = subset (of_prefix p) t

    (* Number of distinct addresses, when it fits in an int (always for v4). *)
    let cardinal_opt (t : t) =
      let range_card (r : Range.t) =
        (* count via the prefix decomposition to stay in int range when possible *)
        List.fold_left
          (fun acc (p : Prefix.t) ->
            match acc with
            | None -> None
            | Some n ->
              let host = A.bits - p.Prefix.len in
              if host >= 62 then None else Some (n + (1 lsl host)))
          (Some 0) (Range.to_prefixes r)
      in
      List.fold_left
        (fun acc r -> match (acc, range_card r) with Some a, Some b -> Some (a + b) | _ -> None)
        (Some 0) t

    let to_string t = String.concat ", " (List.map Range.to_string t)
    let pp fmt t = Format.pp_print_string fmt (to_string t)
  end

  (* Binary (bit-at-a-time) trie keyed by prefixes.  Used for route tables
     and for the relying party's validated-ROA index: longest-prefix match,
     "all covering entries" and "all covered entries" are the three queries
     route-origin validation needs. *)
  module Trie = struct
    type 'a t = Leaf | Node of 'a node
    and 'a node = { value : 'a option; zero : 'a t; one : 'a t }

    let empty = Leaf

    let node value zero one =
      match (value, zero, one) with
      | None, Leaf, Leaf -> Leaf
      | _ -> Node { value; zero; one }

    let insert_with ~combine t (p : Prefix.t) v =
      let rec go t depth =
        let { value; zero; one } =
          match t with Leaf -> { value = None; zero = Leaf; one = Leaf } | Node n -> n
        in
        if depth = p.Prefix.len then begin
          let value = match value with None -> Some v | Some old -> Some (combine old v) in
          Node { value; zero; one }
        end
        else if A.testbit p.Prefix.addr depth then Node { value; zero; one = go one (depth + 1) }
        else Node { value; zero = go zero (depth + 1); one }
      in
      go t 0

    let insert t p v = insert_with ~combine:(fun _ v -> v) t p v

    let remove t (p : Prefix.t) =
      let rec go t depth =
        match t with
        | Leaf -> Leaf
        | Node n ->
          if depth = p.Prefix.len then node None n.zero n.one
          else if A.testbit p.Prefix.addr depth then node n.value n.zero (go n.one (depth + 1))
          else node n.value (go n.zero (depth + 1)) n.one
      in
      go t 0

    let find_exact t (p : Prefix.t) =
      let rec go t depth =
        match t with
        | Leaf -> None
        | Node n ->
          if depth = p.Prefix.len then n.value
          else if A.testbit p.Prefix.addr depth then go n.one (depth + 1)
          else go n.zero (depth + 1)
      in
      go t 0

    (* Deepest valued node on the path to [p] (inclusive). *)
    let longest_match t (p : Prefix.t) =
      let rec go t depth addr best =
        match t with
        | Leaf -> best
        | Node n ->
          let best =
            match n.value with Some v -> Some (Prefix.make addr depth, v) | None -> best
          in
          if depth = p.Prefix.len then best
          else if A.testbit p.Prefix.addr depth then
            go n.one (depth + 1) (A.set_bit addr depth) best
          else go n.zero (depth + 1) addr best
      in
      go t 0 A.zero None

    (* All valued nodes on the path to [p] (inclusive): entries whose prefix
       covers [p], shortest first. *)
    let covering t (p : Prefix.t) =
      let rec go t depth addr acc =
        match t with
        | Leaf -> List.rev acc
        | Node n ->
          let acc =
            match n.value with Some v -> (Prefix.make addr depth, v) :: acc | None -> acc
          in
          if depth = p.Prefix.len then List.rev acc
          else if A.testbit p.Prefix.addr depth then go n.one (depth + 1) (A.set_bit addr depth) acc
          else go n.zero (depth + 1) addr acc
      in
      go t 0 A.zero []

    (* All valued nodes inside the subtree rooted at [p]: entries covered by
       [p], in address order. *)
    let covered t (p : Prefix.t) =
      let rec walk t depth addr acc =
        match t with
        | Leaf -> acc
        | Node n ->
          let acc = walk n.one (depth + 1) (A.set_bit addr depth) acc in
          let acc = walk n.zero (depth + 1) addr acc in
          (match n.value with Some v -> (Prefix.make addr depth, v) :: acc | None -> acc)
      in
      let rec go t depth addr =
        match t with
        | Leaf -> []
        | Node n ->
          if depth = p.Prefix.len then walk t depth addr []
          else if A.testbit p.Prefix.addr depth then go n.one (depth + 1) (A.set_bit addr depth)
          else go n.zero (depth + 1) addr
      in
      go t 0 A.zero

    let fold f t init =
      let rec go t depth addr acc =
        match t with
        | Leaf -> acc
        | Node n ->
          let acc = match n.value with Some v -> f (Prefix.make addr depth) v acc | None -> acc in
          let acc = go n.zero (depth + 1) addr acc in
          go n.one (depth + 1) (A.set_bit addr depth) acc
      in
      go t 0 A.zero init

    let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
    let cardinal t = fold (fun _ _ n -> n + 1) t 0
    let of_list l = List.fold_left (fun t (p, v) -> insert t p v) empty l
  end
end
