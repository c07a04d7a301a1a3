(** A simulated disk with one-shot injected faults.

    Models the failure envelope a relying party's persistence layer must
    survive: torn writes, partial flushes, bit flips, and a crash between
    a data rename and its generation-marker rename.  Deterministic: faults
    are armed explicitly and fire exactly once on the next matching
    operation. *)

type fault =
  | Torn_write      (** next write stores only the first half of the bytes *)
  | Partial_flush   (** next write keeps its length but the tail reads as zeros *)
  | Bit_flip of int (** next write has one bit flipped (index mod total bits) *)
  | Drop_rename     (** next rename is silently lost (crash before the swap) *)

val fault_to_string : fault -> string

type t

val create : unit -> t

val inject : t -> fault -> unit
(** Arm a one-shot fault. Raises [Invalid_argument] if one is already armed. *)

val armed : t -> fault option
val fired : t -> fault list
(** Faults that have fired, most recent first. *)

val write : t -> name:string -> string -> unit
val read : t -> name:string -> string option
val rename : t -> src:string -> dst:string -> unit
(** Raises [Invalid_argument] if [src] does not exist (unless the armed
    [Drop_rename] swallows the operation). *)

val delete : t -> name:string -> unit
val exists : t -> name:string -> bool
val files : t -> string list
val size : t -> name:string -> int
val writes : t -> int
val renames : t -> int

val bytes_written : t -> int
(** Cumulative bytes handed to {!write} since creation (before any armed
    fault shortened them) — the I/O cost line the soak experiments plot. *)
