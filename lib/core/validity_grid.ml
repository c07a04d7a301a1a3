(* Figure 5 machinery: the route-validity status of a prefix and all of its
   subprefixes, for every origin AS of interest.

   The paper's figure colours the subtree of 63.160.0.0/12 down to /24 by
   validity; we reproduce it as (a) a per-length summary of how much address
   space is valid / invalid / unknown for a given origin, and (b) the exact
   state of named sample routes. *)

open Rpki_ip

(* Address-space accounting per validity state at one prefix length.  The
   result counts how many length-[len] subprefixes of [root] are in each
   state for [origin]. *)
type length_summary = { len : int; valid : int; invalid : int; unknown : int }

let summarize_length idx ~root ~len ~origin =
  if len < V4.Prefix.len root then invalid_arg "Validity_grid.summarize_length";
  (* Enumerate by recursive split, but collapse homogeneous subtrees: if a
     subtree has no VRP strictly below the current node, every deeper prefix
     shares the state implied by the covering VRPs at this node. *)
  let count = ref { len; valid = 0; invalid = 0; unknown = 0 } in
  let bump state n =
    count :=
      (match (state : Origin_validation.state) with
      | Valid -> { !count with valid = !count.valid + n }
      | Invalid -> { !count with invalid = !count.invalid + n }
      | Unknown -> { !count with unknown = !count.unknown + n })
  in
  let rec go prefix =
    let plen = V4.Prefix.len prefix in
    if plen = len then bump (Origin_validation.classify idx (Route.make prefix origin)) 1
    else begin
      if not (Origin_validation.covered_strictly_below idx prefix) then begin
        (* homogeneous: every length-[len] subprefix classifies identically *)
        let state = Origin_validation.classify idx (Route.make prefix origin) in
        (* a /len route under this node may still differ when maxLength cuts
           between plen and len, so check both the node and one leaf *)
        let sample =
          Origin_validation.classify idx
            (Route.make (V4.Prefix.make (V4.Prefix.addr prefix) len) origin)
        in
        if Origin_validation.equal_state state sample then bump state (1 lsl (len - plen))
        else begin
          let l, r = V4.Prefix.split prefix in
          go l;
          go r
        end
      end
      else begin
        let l, r = V4.Prefix.split prefix in
        go l;
        go r
      end
    end
  in
  go root;
  !count

let grid idx ~root ~min_len ~max_len ~origin =
  List.init (max_len - min_len + 1) (fun i -> summarize_length idx ~root ~len:(min_len + i) ~origin)

(* Render a set of sample routes with their states — the form in which the
   paper discusses Figure 5 in the text. *)
let sample_rows idx routes =
  List.map
    (fun route ->
      let state, matching, covering = Origin_validation.explain idx route in
      ( route,
        state,
        (match (state, matching, covering) with
        | Origin_validation.Valid, vrp :: _, _ ->
          Printf.sprintf "matching ROA %s" (Vrp.to_string vrp)
        | Origin_validation.Invalid, _, vrp :: _ ->
          Printf.sprintf "covered by %s, no match" (Vrp.to_string vrp)
        | Origin_validation.Unknown, _, _ -> "no covering ROA"
        | _ -> "") ))
    routes
