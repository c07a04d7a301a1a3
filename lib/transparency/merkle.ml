(* RFC 6962-style Merkle hash trees over Rpki_crypto.Sha256.

   Domain-separated hashing (section 2.1): H(0x00 || leaf) for leaves,
   H(0x01 || l || r) for interior nodes, split at the largest power of two
   strictly below the subtree size.

   The tree is append-only, so every perfect subtree the RFC recursion
   visits is aligned (it covers [i·2^h, (i+1)·2^h)) and never changes once
   its last leaf is in.  [add] stores each such subtree hash as it
   completes (amortised one node hash per append), so a root, an inclusion
   proof or a consistency proof is O(log n) lookups plus at most O(log n)
   hashes on the ragged right edge.  The raw leaves are not kept: callers
   that need them (the log) hold their own records. *)

module Sha256 = Rpki_crypto.Sha256

let leaf_hash l = Sha256.digest_list [ "\x00"; l ]
let node_hash l r = Sha256.digest_list [ "\x01"; l; r ]

(* Largest power of two strictly below n (n >= 2). *)
let split_point n =
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  !k

type t = {
  mutable levels : string array array;
      (* levels.(h).(i) = MTH of leaves [i·2^h, (i+1)·2^h); level h holds
         [count lsr h] valid entries, the rest is spare capacity *)
  mutable count : int;
}

let create () = { levels = [| Array.make 16 "" |]; count = 0 }

let size t = t.count

(* Store [v] at levels.(h).(i), growing the level (or adding it) first. *)
let store t h i v =
  if h = Array.length t.levels then
    t.levels <- Array.append t.levels [| Array.make 16 "" |];
  let a = t.levels.(h) in
  if i = Array.length a then begin
    let grown = Array.make (2 * i) "" in
    Array.blit a 0 grown 0 i;
    t.levels.(h) <- grown
  end;
  t.levels.(h).(i) <- v

let add t l =
  let i = t.count in
  store t 0 i (leaf_hash l);
  let n = i + 1 in
  t.count <- n;
  (* every perfect subtree ending at leaf i is now complete *)
  let h = ref 1 in
  while n land ((1 lsl !h) - 1) = 0 do
    let j = (n lsr !h) - 1 in
    let below = t.levels.(!h - 1) in
    store t !h j (node_hash below.(2 * j) below.((2 * j) + 1));
    incr h
  done;
  i

(* log2 of a power of two. *)
let log2 n =
  let rec go h = if 1 lsl h >= n then h else go (h + 1) in
  go 0

(* MTH over leaves [lo, lo+n), all of them already added. *)
let rec mth t lo n =
  if n = 0 then Sha256.digest ""
  else if n land (n - 1) = 0 && lo land (n - 1) = 0 then t.levels.(log2 n).(lo / n)
  else
    let k = split_point n in
    node_hash (mth t lo k) (mth t (lo + k) (n - k))

let root_at t ~size =
  if size < 0 || size > t.count then invalid_arg "Merkle.root_at: size out of range";
  mth t 0 size

let root t = root_at t ~size:t.count

type proof = string list

let proof_bytes p = 32 * List.length p

(* PATH(m, D[lo, lo+n)), leaf-to-root order. *)
let rec path t m lo n =
  if n <= 1 then []
  else
    let k = split_point n in
    if m < k then path t m lo k @ [ mth t (lo + k) (n - k) ]
    else path t (m - k) (lo + k) (n - k) @ [ mth t lo k ]

let inclusion_proof t ~index ~size =
  if size < 1 || size > t.count then invalid_arg "Merkle.inclusion_proof: size out of range";
  if index < 0 || index >= size then invalid_arg "Merkle.inclusion_proof: index out of range";
  path t index 0 size

(* RFC 6962 section 2.1.1 verification: walk the path combining left or
   right according to the index bits, tracking the subtree extent. *)
let verify_inclusion ~leaf ~index ~size ~root proof =
  if index < 0 || size < 1 || index >= size then false
  else begin
    let fn = ref index and sn = ref (size - 1) in
    let r = ref (leaf_hash leaf) in
    let ok = ref true in
    List.iter
      (fun c ->
        if !sn = 0 then ok := false
        else begin
          if !fn land 1 = 1 || !fn = !sn then begin
            r := node_hash c !r;
            if !fn land 1 = 0 then
              while !fn land 1 = 0 && !fn <> 0 do
                fn := !fn lsr 1;
                sn := !sn lsr 1
              done
          end
          else r := node_hash !r c;
          fn := !fn lsr 1;
          sn := !sn lsr 1
        end)
      proof;
    !ok && !sn = 0 && String.equal !r root
  end

(* SUBPROOF(m, D[lo, lo+n), flag), RFC 6962 section 2.1.2. *)
let rec subproof t m lo n flag =
  if m = n then if flag then [] else [ mth t lo n ]
  else
    let k = split_point n in
    if m <= k then subproof t m lo k flag @ [ mth t (lo + k) (n - k) ]
    else subproof t (m - k) (lo + k) (n - k) false @ [ mth t lo k ]

let consistency_proof t ~old_size ~size =
  if size > t.count then invalid_arg "Merkle.consistency_proof: size out of range";
  if old_size < 1 || old_size > size then
    invalid_arg "Merkle.consistency_proof: old_size out of range";
  if old_size = size then [] else subproof t old_size 0 size true

(* RFC 6962 section 2.1.2 / RFC 9162 section 2.1.4.2 verification. *)
let verify_consistency ~old_size ~old_root ~size ~root proof =
  if old_size < 0 || old_size > size then false
  else if old_size = 0 then proof = []
  else if old_size = size then proof = [] && String.equal old_root root
  else begin
    (* when old_size is an exact power of two, the old root itself seeds
       the walk and is not repeated inside the proof *)
    let proof = if old_size land (old_size - 1) = 0 then old_root :: proof else proof in
    match proof with
    | [] -> false
    | seed :: rest ->
      let fn = ref (old_size - 1) and sn = ref (size - 1) in
      while !fn land 1 = 1 do
        fn := !fn lsr 1;
        sn := !sn lsr 1
      done;
      let fr = ref seed and sr = ref seed in
      let ok = ref true in
      List.iter
        (fun c ->
          if !sn = 0 then ok := false
          else begin
            if !fn land 1 = 1 || !fn = !sn then begin
              fr := node_hash c !fr;
              sr := node_hash c !sr;
              if !fn land 1 = 0 then
                while !fn land 1 = 0 && !fn <> 0 do
                  fn := !fn lsr 1;
                  sn := !sn lsr 1
                done
            end
            else sr := node_hash !sr c;
            fn := !fn lsr 1;
            sn := !sn lsr 1
          end)
        rest;
      !ok && !sn = 0 && String.equal !fr old_root && String.equal !sr root
  end
