(* Entry point: `dune exec bench/main.exe [-- EXPERIMENT...]`.

   With no arguments, every experiment runs (the tables/figures of the
   paper) followed by the Bechamel microbenchmark suite.  Individual
   experiments can be selected by id: any id in [Experiments.all], or
   perf.  `--quick` shrinks every experiment to a smoke pass; `--json`
   additionally writes BENCH_<name>.json for every experiment that calls
   [Experiments.write_json]. *)

open Bechamel
open Toolkit
open Rpki_core
open Rpki_ip

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                     *)
(* ------------------------------------------------------------------ *)

let drbg_rng seed = Rpki_crypto.Drbg.to_rng (Rpki_crypto.Drbg.create ~seed)

let bench_crypto () =
  let keypair = Rpki_crypto.Rsa.generate (drbg_rng "bench-keypair") in
  let msg_1k = String.make 1024 'x' in
  let msg_64k = String.make 65536 'x' in
  let signature = Rpki_crypto.Rsa.sign ~key:keypair.Rpki_crypto.Rsa.private_ msg_1k in
  Test.make_grouped ~name:"crypto"
    [ Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Rpki_crypto.Sha256.digest "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"));
      Test.make ~name:"sha256-1KiB" (Staged.stage (fun () -> Rpki_crypto.Sha256.digest msg_1k));
      Test.make ~name:"sha256-64KiB" (Staged.stage (fun () -> Rpki_crypto.Sha256.digest msg_64k));
      Test.make ~name:"rsa-sign-512" (Staged.stage (fun () -> Rpki_crypto.Rsa.sign ~key:keypair.Rpki_crypto.Rsa.private_ msg_1k));
      Test.make ~name:"rsa-verify-512"
        (Staged.stage (fun () -> Rpki_crypto.Rsa.verify ~key:keypair.Rpki_crypto.Rsa.public ~signature msg_1k)) ]

(* a 4096-leaf Merkle tree; successive runs step the size (root,
   consistency) or index (inclusion) by a stride coprime with 4096, so
   every short window of runs spreads over the whole tree, ragged
   (non-power-of-two) right edges included *)
let bench_transparency () =
  let module Merkle = Rpki_transparency.Merkle in
  let n = 4096 in
  let t = Merkle.create () in
  for i = 0 to n - 1 do
    ignore (Merkle.add t (Printf.sprintf "leaf-%d" i))
  done;
  let stepper () =
    let i = ref 0 in
    fun () ->
      i := (!i + 1237) mod n;
      !i
  in
  let root_size = stepper () and index = stepper () and old_size = stepper () in
  Test.make_grouped ~name:"transparency"
    [ Test.make ~name:"merkle-root-4096"
        (Staged.stage (fun () -> Merkle.root_at t ~size:(1 + root_size ())));
      Test.make ~name:"merkle-inclusion-4096"
        (Staged.stage (fun () -> Merkle.inclusion_proof t ~index:(index ()) ~size:n));
      Test.make ~name:"merkle-consistency-4096"
        (Staged.stage (fun () -> Merkle.consistency_proof t ~old_size:(1 + old_size ()) ~size:n)) ]

let bench_objects () =
  let key = Rpki_crypto.Rsa.generate (drbg_rng "bench-objects") in
  let cert =
    Cert.self_signed ~key ~subject:"Bench" ~resources:(Resources.of_v4_strings [ "10.0.0.0/8" ])
      ~not_before:0 ~not_after:1000 ()
  in
  let encoded = Cert.encode cert in
  let roa =
    Roa.issue ~ca_key:key.Rpki_crypto.Rsa.private_ ~ca_subject:"Bench" ~serial:2
      ~rng:(drbg_rng "bench-roa") ~asid:65000
      ~v4_entries:[ Roa.entry ~max_len:24 (V4.p "10.1.0.0/20") ]
      ~not_before:0 ~not_after:1000 ()
  in
  Test.make_grouped ~name:"objects"
    [ Test.make ~name:"cert-encode" (Staged.stage (fun () -> Cert.encode cert));
      Test.make ~name:"cert-decode" (Staged.stage (fun () -> Cert.decode encoded));
      Test.make ~name:"cert-validate"
        (Staged.stage (fun () -> Validation.validate_cert ~now:10 ~parent:cert cert));
      Test.make ~name:"roa-validate"
        (Staged.stage (fun () -> Validation.validate_roa ~now:10 ~parent:cert roa)) ]

(* a VRP population of realistic size (the paper's projected deployment is
   tens of thousands of ROAs) *)
let synthetic_vrps n =
  let rng = Rpki_util.Rng.create 31 in
  List.init n (fun _ ->
      let addr = Rpki_util.Rng.bits rng 32 in
      let len = 12 + Rpki_util.Rng.int rng 13 in
      let prefix = V4.Prefix.make addr len in
      Vrp.make ~max_len:(min 32 (len + Rpki_util.Rng.int rng 4)) prefix (Rpki_util.Rng.int rng 65000))

let bench_origin_validation () =
  let vrps = synthetic_vrps 40_000 in
  let idx = Origin_validation.build vrps in
  let rng = Rpki_util.Rng.create 77 in
  let routes =
    Array.init 1024 (fun _ ->
        Route.make (V4.Prefix.make (Rpki_util.Rng.bits rng 32) (8 + Rpki_util.Rng.int rng 25))
          (Rpki_util.Rng.int rng 65000))
  in
  let i = ref 0 in
  let vrps_10k = synthetic_vrps 10_000 in
  Test.make_grouped ~name:"origin-validation"
    [ Test.make ~name:"build-index-10k" (Staged.stage (fun () -> Origin_validation.build vrps_10k));
      Test.make ~name:"classify-40k-index"
        (Staged.stage (fun () ->
             i := (!i + 1) land 1023;
             Origin_validation.classify idx routes.(!i))) ]

let bench_bgp () =
  let g = Rpki_bgp.Topo_gen.generate Rpki_bgp.Topo_gen.default_spec in
  let victim = List.hd g.Rpki_bgp.Topo_gen.stub_asns in
  let prefix = V4.p "63.174.16.0/20" in
  let idx = Origin_validation.build [ Vrp.make ~max_len:20 prefix victim ] in
  let anns = [ { Rpki_bgp.Propagation.prefix; origin = victim } ] in
  Test.make_grouped ~name:"bgp"
    [ Test.make ~name:"propagate-124-as"
        (Staged.stage (fun () ->
             Rpki_bgp.Propagation.compute ~topo:g.Rpki_bgp.Topo_gen.topo
               ~policy_of:(fun _ -> Rpki_bgp.Policy.Drop_invalid)
               ~validity_of:(Origin_validation.classify idx)
               anns)) ]

let bench_attack () =
  let m = Rpki_repo.Model.build () in
  Test.make_grouped ~name:"attack"
    [ Test.make ~name:"plan-grandchild-whack"
        (Staged.stage (fun () ->
             Rpki_attack.Whack.plan_targeted ~manipulator:m.Rpki_repo.Model.sprint
               ~target_issuer:"Continental" ~target_filename:m.Rpki_repo.Model.roa_target20)) ]

let bench_rp () =
  let m = Rpki_repo.Model.build () in
  let rp = Rpki_repo.Model.relying_party m in
  Test.make_grouped ~name:"relying-party"
    [ Test.make ~name:"full-sync-model"
        (Staged.stage (fun () ->
             Rpki_repo.Relying_party.sync rp ~now:1 ~universe:m.Rpki_repo.Model.universe ())) ]

let bench_rrdp () =
  let pp = Rpki_repo.Pub_point.create ~uri:"rsync://bench/repo" ~addr:0 ~host_asn:1 in
  for i = 0 to 199 do
    Rpki_repo.Pub_point.put pp ~filename:(Printf.sprintf "f%03d.roa" i) (String.make 256 (Char.chr (65 + (i mod 26))))
  done;
  let server = Rpki_repo.Rrdp.create pp in
  ignore (Rpki_repo.Rrdp.publish_now server);
  let i = ref 0 in
  Test.make_grouped ~name:"rrdp"
    [ Test.make ~name:"delta-cycle-200-files"
        (Staged.stage (fun () ->
             incr i;
             Rpki_repo.Pub_point.put pp ~filename:"f000.roa" (Printf.sprintf "v%d" !i);
             ignore (Rpki_repo.Rrdp.publish_now server);
             let client = Rpki_repo.Rrdp.create_client () in
             ignore (Rpki_repo.Rrdp.sync client server))) ]

let bench_rtr () =
  let cache = Rpki_rtr.Session.create_cache () in
  Rpki_rtr.Session.publish cache (synthetic_vrps 1000);
  Test.make_grouped ~name:"rtr"
    [ Test.make ~name:"full-dump-1k-vrps"
        (Staged.stage (fun () ->
             let router = Rpki_rtr.Session.create_router () in
             Rpki_rtr.Session.synchronize router cache)) ]

let run_perf () =
  Printf.printf "\n==== Microbenchmarks (Bechamel, monotonic clock) ====\n\n";
  let tests =
    Test.make_grouped ~name:"rpki-mra"
      [ bench_crypto (); bench_transparency (); bench_objects (); bench_origin_validation (); bench_bgp ();
        bench_attack (); bench_rp (); bench_rtr (); bench_rrdp () ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if !Experiments.quick then
      (* smoke mode: one short pass per benchmark, numbers are rough *)
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.01) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, estimate) :: acc)
      clock []
  in
  let t =
    Rpki_util.Table.create
      ~aligns:[ Rpki_util.Table.Left; Rpki_util.Table.Right ]
      [ "benchmark"; "time/run" ]
  in
  let humanize ns =
    if Float.is_nan ns then "n/a"
    else if ns < 1e3 then Printf.sprintf "%.1f ns" ns
    else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else Printf.sprintf "%.2f s" (ns /. 1e9)
  in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter (fun (name, est) -> Rpki_util.Table.add_row t [ name; humanize est ]) sorted;
  Rpki_util.Table.print t;
  Experiments.write_json ~name:"perf"
    (Printf.sprintf "{\"experiment\":\"perf\",\"quick\":%b,\"benchmarks\":[%s]}"
       !Experiments.quick
       (String.concat ","
          (List.map
             (fun (name, est) ->
               Printf.sprintf "{\"benchmark\":\"%s\",\"ns_per_run\":%s}" name
                 (if Float.is_nan est then "null" else Printf.sprintf "%.1f" est))
             sorted)))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let known = Experiments.all @ [ ("perf", run_perf) ] in
  let args = List.filter (fun a -> a <> Sys.argv.(0)) (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          Experiments.quick := true;
          false
        end
        else if a = "--json" then begin
          (* experiments that support it also write BENCH_<name>.json *)
          Experiments.json := true;
          false
        end
        else true)
      args
  in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) known
  | selected ->
    List.iter
      (fun name ->
        match List.assoc_opt name known with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat " " (List.map fst known));
          exit 1)
      selected
