(* Wall time from CLOCK_MONOTONIC, never [Sys.time]: [Sys.time] is process
   CPU time, which hides waiting and double-counts parallel Domains.  CPU
   time is read separately, only to report the CPU/wall ratio. *)

let now_ns () = Monotonic_clock.now ()

let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

let s_between a b = Int64.to_float (Int64.sub b a) /. 1e9

let cpu_s () = Sys.time ()

(* A fixed reference computation that shares no code with the program under
   test, mixing the two kinds of work a tick is made of: lookups in and
   updates of a small [Map] plus a list sort (allocating, pointer-chasing,
   cache-resident) and a dependent walk over a 16 MB table outside the
   OCaml heap (memory latency), about half the time each.  On a shared
   host the two slow differently: when other tenants took CPU time, ticks
   and the [Map] work slowed alike (10-tick medians of world-static's tick
   and of the [Map] work correlated 0.99); when they loaded the memory
   system, world-static's tick slowed 2.5x, the [Map] work 2.0x and the
   walk 2.9x, so neither alone follows the tick and the mix does.  The
   [Map] part empties the minor heap first and allocates well under one
   minor heap (about 45k words against 256k), so it promotes nothing and
   leaves the program's heap as it found it. *)
module Int_map = Map.Make (Int)

let table =
  let n = 1 lsl 21 in
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- (i * 5 + 1) land (n - 1)
  done;
  a

let reference_ms () =
  Gc.minor ();
  let t0 = now_ns () in
  let x = ref 0x2545f491 in
  let next () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    !x
  in
  let m = ref Int_map.empty and hits = ref 0 in
  for i = 1 to 500 do
    m := Int_map.add (next () land 0xfff) i !m
  done;
  for _ = 1 to 20_000 do
    if Int_map.mem (next () land 0xfff) !m then incr hits
  done;
  hits := !hits + List.hd (List.sort compare (List.init 500 (fun _ -> next () land 0xfff)));
  let i = ref 0 in
  for _ = 1 to 30_000 do
    i := table.{(!i lxor (next () land 0xfffff)) land (Bigarray.Array1.dim table - 1)}
  done;
  ignore (Sys.opaque_identity (!hits + !i));
  ms_between t0 (now_ns ())

(* Set-up is reported as its wall time on a host where [reference_ms]
   takes this long: a fixed constant that only sets the scale. *)
let nominal_ref_ms = 4.0

let reference_samples () = Array.init 5 (fun _ -> reference_ms ())
