(* The benchmark runner.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--spans-dir DIR] [--smoke]

   --trace 0 sets the workload up [passes] times (median = setup_s); each
   rig runs the closed loop for a share of S wall seconds and at least the
   workload's window of ticks, timing every [Loop.step].  It prints the
   end-to-end metrics over the window (see [end_to_end]).
   --trace 1 runs the window untraced and then through the traced replay on
   a second rig from the same seed, checks the two runs' tick records and
   work counters are identical, and prints the per-layer metrics; spans go
   to DIR as JSONL.  --smoke runs both for [smoke_ticks] ticks on the small
   world sizes and prints a determinism digest instead.

   Every tick's outputs are checked (see [Workload.checker]); the last line
   of standard output is one JSON object with the keys correct, attempted,
   failed and metrics, and the exit code is 1 when a check failed. *)

module Loop = Rpki_sim.Loop
module Server = Rpki_rtr.Server

(* Two, not three: a run is 2 set-ups and 2 x 100 ticks, about 33 s on the
   slowed host of perfbench/README.md; a third pass made it 48 s. *)
let passes = 2
let smoke_ticks = 14

(* The timed ticks the end-to-end metrics cover, ticks 2..window+1, which
   every pass makes whatever the machine's speed; 100 so p90 has 10 ticks
   beyond it.  A fixed window compares the same history on every run and
   every version of the program: tick cost grows with log length on
   vantage-gossip, and roa-churn's RTR flush cost rises over its first
   ticks and after each restart. *)
let window = 100

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let spans_dir = ref ".bench_out"
let smoke = ref false

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME world-static | vantage-gossip | roa-churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S wall seconds of timed ticks");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where the traced run writes spans");
      ("--smoke", Arg.Set smoke, " smoke pass: a few ticks on small worlds") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

(* --- statistics ----------------------------------------------------------- *)

(* linear interpolation between closest ranks *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let mean a =
  if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio a b = if b = 0. then 0. else a /. b

(* --- one tick, checked -------------------------------------------------------- *)

(* The deterministic outputs of one tick: the full tick record plus the work
   counters the determinism self-check compares between runs. *)
let fingerprint (rig : Workload.rig) ~rsa (r : Loop.tick_record) =
  let ribs =
    match rig.Workload.sim.Loop.net with
    | Some n -> List.length n.Rpki_bgp.Data_plane.ribs
    | None -> 0
  in
  let pulls =
    match r.Loop.gossip_report with Some g -> g.Rpki_repo.Gossip.r_pulls | None -> 0
  in
  Printf.sprintf "%s | rsa=%d pulls=%d ribs=%d encoded=%d" (Workload.record_repr r) rsa pulls ribs
    (Server.stats (Loop.rtr_server rig.Workload.sim)).Server.bytes_encoded

type tick = {
  ms : float;        (* Loop.step wall time *)
  ref_ms : float;    (* the reference computation, run right after the tick *)
  cpu_s : float;
  fp : string;
  fails : string list;
}

(* Only the paired and smoke runs compare fingerprints; the end-to-end run
   skips building them. *)
let fingerprints = ref false

let run_tick (rig : Workload.rig) check ~span ~step ~now =
  let input_fails = rig.Workload.inputs span ~now in
  let rsa0 = Rpki_crypto.Rsa.verification_count () in
  let c0 = Clock.cpu_s () in
  let t0 = Clock.now_ns () in
  let r = step rig.Workload.sim ~now in
  let t1 = Clock.now_ns () in
  let cpu_s = Clock.cpu_s () -. c0 in
  let rsa = Rpki_crypto.Rsa.verification_count () - rsa0 in
  let fails = input_fails @ check ~now r in
  { ms = Clock.ms_between t0 t1; ref_ms = Clock.reference_ms (); cpu_s;
    fp = (if !fingerprints then fingerprint rig ~rsa r else "");
    fails }

let untraced (sim : Loop.t) ~now = Loop.step sim ~now

type started = {
  rig : Workload.rig;
  check : now:int -> Loop.tick_record -> string list;
  detected : unit -> int option;  (* first fork tick *)
  first : tick;                   (* the cold first tick *)
  setup_wall_s : float;
  setup_refs : float array;       (* reference times right before and after *)
}

(* Build a rig and run its cold first tick: the set-up every experiment
   pays once (world synthesis, RSA keys, the rig, full first validation).
   [make] comes from [Workload.prepare], so the seeded input work is done
   before this; the cold tick's inputs are generated outside the timing
   like every tick's. *)
let setup make ~step ~span =
  let before = Clock.reference_samples () in
  let t0 = Clock.now_ns () in
  let rig = make () in
  let build_s = Clock.s_between t0 (Clock.now_ns ()) in
  let check, detected = Workload.checker rig in
  let first = run_tick rig check ~span ~step ~now:1 in
  { rig; check; detected; first;
    setup_wall_s = build_s +. (first.ms /. 1000.);
    setup_refs = Array.append before (Clock.reference_samples ()) }

(* Closed loop: tick [now] starts when tick [now - 1] returns, until the
   deadline has passed and at least [min_ticks] ticks are timed, or
   [max_ticks] are.  [on_tick] runs after each tick, outside the timing. *)
let loop ?(min_ticks = 0) ?(on_tick = ignore) rig check ~span ~step ~deadline ~max_ticks =
  let ticks = ref [] in
  let now = ref 2 in
  while (Clock.now_ns () < deadline || !now - 2 < min_ticks) && !now - 1 <= max_ticks do
    ticks := run_tick rig check ~span ~step ~now:!now :: !ticks;
    on_tick !now;
    incr now
  done;
  Array.of_list (List.rev !ticks)

(* --- output ------------------------------------------------------------------- *)

let by_tenth ticks =
  let n = Array.length ticks in
  String.concat " "
    (List.init (min 10 n) (fun i ->
         let lo = i * n / 10 and hi = (i + 1) * n / 10 in
         Printf.sprintf "%.1f" (mean (Array.map (fun t -> t.ms) (Array.sub ticks lo (hi - lo))))))

let failed_ticks ticks =
  Array.fold_left (fun acc t -> if t.fails = [] then acc else acc + 1) 0 ticks

let report_failures ticks =
  Array.iter (fun t -> List.iter (fun f -> Printf.printf "CHECK FAILED %s\n" f) t.fails) ticks

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s = %.6g %s\n" !workload name v unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.9g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  exit (if correct then 0 else 1)

let deadline_in s = Int64.add (Clock.now_ns ()) (Int64.of_float (s *. 1e9))

(* --- --trace 0: end-to-end ----------------------------------------------------- *)

(* The run sets the workload up [passes] times from the same seed, and each
   rig runs the closed loop for a share of --seconds and at least the
   workload's window of ticks.  Every pass replays the same deterministic
   ticks, so the program's own variation (GC, compaction, restart ticks)
   recurs in each; the tick metrics take each tick's fastest pass, which
   drops what the host's other tenants added to one pass only.
   Passes are seconds apart, longer than the host's slow phases. *)
type pass = {
  started : started;
  failed : int;               (* ticks that failed a check, the cold tick included *)
  ticks : tick array;         (* timed ticks *)
  setup_s : float;
      (* set-up wall seconds scaled to the reference speed: times
         [Clock.nominal_ref_ms] over the median reference time around the
         set-up and over the pass that follows it, which is how fast the
         host ran while the set-up did *)
}

let end_to_end w =
  let span = Workload.no_span in
  let make = w.Workload.prepare Workload.Full ~seed:!seed in
  let memory = ref (0., 0.) in
  let on_tick now =
    if now = window + 1 then begin
      Gc.full_major ();
      memory :=
        ( float_of_int (Gc.stat ()).Gc.live_words *. 8. /. 1e6,
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6 )
    end
  in
  let run i =
    Gc.compact ();
    let st = setup make ~step:untraced ~span in
    let ticks =
      loop ~min_ticks:window
        ~on_tick:(if i = 0 then on_tick else ignore)
        st.rig st.check ~span ~step:untraced
        ~deadline:(deadline_in (!seconds /. float_of_int passes))
        ~max_ticks:max_int
    in
    let all = Array.append [| st.first |] ticks in
    report_failures all;
    let host_ms =
      percentile (Array.append st.setup_refs (Array.map (fun t -> t.ref_ms) all)) 0.5
    in
    let setup_s = st.setup_wall_s *. Clock.nominal_ref_ms /. host_ms in
    Printf.printf
      "%s pass %d: set-up %.3f s wall, %.3f s scaled, %d timed ticks, tick_ms by tenth = %s\n"
      !workload (i + 1) st.setup_wall_s setup_s (Array.length ticks) (by_tenth ticks);
    { started = st; failed = failed_ticks all; ticks; setup_s }
  in
  let timed = List.init passes run in
  (* each tick's fastest pass, of its wall time and of its cost in
     reference computations (the tick's wall time over the median
     reference time of the 21 ticks around it, in the same pass) *)
  let fastest f =
    Array.init window (fun i -> List.fold_left (fun acc r -> Float.min acc (f r i)) infinity timed)
  in
  let refs a = Array.map (fun t -> t.ref_ms) a in
  let ms = fastest (fun r i -> r.ticks.(i).ms) in
  let in_refs =
    fastest (fun r i ->
        let lo = max 0 (i - 10) and hi = min (Array.length r.ticks) (i + 11) in
        r.ticks.(i).ms /. percentile (refs (Array.sub r.ticks lo (hi - lo))) 0.5)
  in
  let ref_ms = percentile (Array.concat (List.map (fun r -> refs r.ticks) timed)) 0.5 in
  let q = window / 4 in
  let growth = ratio (mean (Array.sub in_refs (window - q) q)) (mean (Array.sub in_refs 0 q)) in
  let live_mb, heap_peak_mb = !memory in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 timed in
  let attempted = List.fold_left (fun acc r -> acc + Array.length r.ticks) 0 timed in
  let first = List.hd timed in
  let detected = first.started.detected () in
  let agree = List.for_all (fun r -> r.started.detected () = detected) timed in
  if not agree then Printf.printf "CHECK FAILED the passes detected the fork at different ticks\n";
  let show (name, v, unit) = Printf.printf "%s %s = %.6g %s\n" !workload name v unit in
  Printf.printf "%s world = %s\n" !workload first.started.rig.Workload.describe;
  Printf.printf "%s tick metrics over ticks 2..%d, each tick's fastest of %d passes\n" !workload
    (window + 1) passes;
  List.iter show
    [ ("ticks_per_s", ratio (float_of_int window) (Array.fold_left ( +. ) 0. ms /. 1000.), "1/s");
      ("tick_ms.p50", percentile ms 0.5, "ms");
      ("tick_ms.p90", percentile ms 0.9, "ms");
      ("ref_ms", ref_ms, "ms");
      ( "setup_wall_s",
        percentile (Array.of_list (List.map (fun r -> r.started.setup_wall_s) timed)) 0.5,
        "s" );
      ("tick_growth", growth, "ratio");
      ("failed_share", ratio (float_of_int failed) (float_of_int attempted), "share") ];
  (match first.started.rig.Workload.fork_at with
  | None -> ()
  | Some k -> (
    match detected with
    | Some d -> show ("detect_lag_ticks", float_of_int (d - k), "ticks")
    | None -> Printf.printf "%s detect_lag_ticks = undetected\n" !workload));
  print_result ~correct:(failed = 0 && agree) ~attempted ~failed
    [ ( "setup_s",
        percentile (Array.of_list (List.map (fun r -> r.setup_s) timed)) 0.5,
        "s" );
      ( "ticks_per_kref",
        ratio (1000. *. float_of_int window) (Array.fold_left ( +. ) 0. in_refs),
        "1/kref" );
      ("tick_ref.p50", percentile in_refs 0.5, "ref");
      ("tick_ref.p90", percentile in_refs 0.9, "ref");
      ("live_mb", live_mb, "MB");
      ("heap_peak_mb", heap_peak_mb, "MB") ]

(* --- --trace 1: per-layer ------------------------------------------------------ *)

(* Run ticks untraced, then the same ticks through the traced replay on a
   second rig from the same seed; return both runs and whether every tick's
   record and work counters are identical. *)
let paired w scale ~ticks =
  let exactly = loop ~min_ticks:ticks ~deadline:0L ~max_ticks:ticks in
  fingerprints := true;
  let make = w.Workload.prepare scale ~seed:!seed in
  let st = setup make ~step:untraced ~span:Workload.no_span in
  let plain =
    Array.append [| st.first |] (exactly st.rig st.check ~span:Workload.no_span ~step:untraced)
  in
  Gc.compact ();
  let n = Array.length plain in
  let st = setup make ~step:Traced.step ~span:Traced.span_hook in
  let counters = Array.make (n + 1) [] in
  let step sim ~now =
    let r = Traced.step sim ~now in
    counters.(now) <- Hashtbl.fold (fun k v acc -> (k, v) :: acc) Traced.counters [];
    r
  in
  let traced =
    Array.append [| st.first |] (exactly st.rig st.check ~span:Traced.span_hook ~step)
  in
  let same = ref (Array.length traced = n) in
  Array.iteri
    (fun i t ->
      if i < Array.length traced && not (String.equal t.fp traced.(i).fp) then begin
        if !same then
          Printf.printf "TRACE MISMATCH at t%d\n  untraced: %s\n  traced:   %s\n" (i + 1) t.fp
            traced.(i).fp;
        same := false
      end)
    plain;
  (plain, traced, counters, !same, st.rig)

let per_layer w =
  let plain, traced, counters, same, _ =
    paired w Workload.Full ~ticks:window
  in
  report_failures plain;
  report_failures traced;
  let n = Array.length plain in
  let timed = max 1 (n - 1) in
  (* per-tick means over the timed ticks 2..n *)
  let span_ms = Hashtbl.create 32 and span_mw = Hashtbl.create 32 and covered = ref 0. in
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  let add tbl k v = Hashtbl.replace tbl k (v +. get tbl k) in
  List.iter
    (fun (s : Traced.span) ->
      if s.Traced.tick >= 2 then begin
        let ms = Clock.ms_between s.Traced.t0 s.Traced.t1 in
        add span_ms s.Traced.name ms;
        add span_mw s.Traced.name (s.Traced.minor_words /. 1e6);
        if s.Traced.parent = -1 && s.Traced.name <> "persist.restore" then covered := !covered +. ms
      end)
    !Traced.spans;
  let totals = Hashtbl.create 32 in
  Array.iteri
    (fun tick kv -> if tick >= 2 then List.iter (fun (k, v) -> add totals k v) kv)
    counters;
  let c k = get totals k in
  let per_tick v = v /. float_of_int timed in
  let time k = (k ^ ".ms", per_tick (get span_ms k), "ms") in
  let cnt k = (k, per_tick (c k), "count") in
  let timed_sum f a =
    Array.fold_left (fun acc t -> acc +. f t) 0. (Array.sub a 1 (Array.length a - 1))
  in
  let traced_total = timed_sum (fun t -> t.ms) traced
  and plain_total = timed_sum (fun t -> t.ms) plain
  and cpu = timed_sum (fun t -> t.cpu_s) traced in
  let layers =
    [ "universe.refresh"; "valcache.tick"; "rp.sync_primary"; "rp.sync_vantages"; "rtr.publish";
      "rtr.flush"; "ov.build"; "data_plane.build"; "data_plane.probes"; "gossip.round";
      "persist.save"; "persist.compact"; "persist.restore" ]
  in
  let metrics =
    [ time "universe.refresh"; time "valcache.tick"; cnt "valcache.sig_checked";
      cnt "valcache.sig_saved";
      ( "valcache.point_hit_ratio",
        ratio (c "valcache.point_hits") (c "valcache.point_hits" +. c "valcache.point_misses"),
        "ratio" );
      cnt "valcache.resident"; time "rp.sync_primary"; time "rp.sync_vantages";
      cnt "rp.points_revalidated";
      ( "rp.reuse_ratio",
        ratio (c "rp.points_reused") (c "rp.points_reused" +. c "rp.points_revalidated"),
        "ratio" );
      cnt "rp.fetch_fallbacks"; cnt "rp.log_leaves"; cnt "rsa.verifications"; time "rtr.publish";
      time "rtr.flush"; ("rtr.bytes_encoded", per_tick (c "rtr.bytes_encoded"), "B");
      ("rtr.bytes_sent", per_tick (c "rtr.bytes_sent"), "B"); cnt "rtr.resets"; time "ov.build";
      cnt "ov.vrps"; time "data_plane.build"; cnt "data_plane.ribs"; time "data_plane.probes";
      time "gossip.round"; cnt "gossip.pulls"; cnt "gossip.verifies";
      ( "gossip.verify_saved_ratio",
        ratio (c "gossip.verifies_saved") (c "gossip.verifies" +. c "gossip.verifies_saved"),
        "ratio" );
      cnt "gossip.proofs_built";
      ( "gossip.proof_reuse_ratio",
        ratio (c "gossip.proofs_reused") (c "gossip.proofs_built" +. c "gossip.proofs_reused"),
        "ratio" );
      ("gossip.proof_bytes", per_tick (c "gossip.proof_bytes"), "B"); time "persist.save";
      time "persist.compact"; time "persist.restore";
      ("persist.bytes_written", per_tick (c "persist.bytes_written"), "B");
      cnt "persist.segments" ]
    @ List.map
        (fun k ->
          (k ^ ".alloc_mw", per_tick (get span_mw k), "Mw"))
        layers
    @ [ cnt "gc.major_collections";
        ("trace.coverage", ratio !covered traced_total, "ratio");
        ("trace.overhead", ratio traced_total plain_total, "ratio");
        ("cpu_per_wall", ratio cpu (traced_total /. 1000.), "ratio") ]
  in
  (try
     if not (Sys.file_exists !spans_dir) then Sys.mkdir !spans_dir 0o755;
     Traced.write_jsonl
       (Filename.concat !spans_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
   with Sys_error e -> Printf.printf "spans not written: %s\n" e);
  Printf.printf "%s traced ticks = %d, records identical to untraced run = %b\n" !workload n same;
  let failed = failed_ticks plain in
  print_result
    ~correct:(same && failed = 0 && Array.for_all (fun t -> t.fails = []) traced)
    ~attempted:n ~failed metrics

(* --- smoke: untraced and traced on small worlds, determinism digest ---------- *)

let smoke_pass w =
  let plain, traced, _, same, rig =
    paired w Workload.Smoke ~ticks:(smoke_ticks - 1)
  in
  report_failures plain;
  report_failures traced;
  let digest =
    Array.to_list (Array.map (fun t -> t.fp) plain)
    |> String.concat "\n"
    |> ( ^ ) rig.Workload.describe
    |> Digest.string |> Digest.to_hex
  in
  Printf.printf "%s smoke ticks = %d, records identical = %b, world = %s\n" !workload
    (Array.length plain) same rig.Workload.describe;
  Printf.printf "determinism digest %s\n" digest;
  let failed = failed_ticks plain in
  print_result
    ~correct:(same && failed = 0 && Array.for_all (fun t -> t.fails = []) traced)
    ~attempted:(Array.length plain) ~failed []

let () =
  match Workload.find !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w -> (
    try if !smoke then smoke_pass w else if !trace = 1 then per_layer w else end_to_end w
    with Workload.Bad_world msg ->
      Printf.printf "CHECK FAILED %s\n" msg;
      exit 1)
