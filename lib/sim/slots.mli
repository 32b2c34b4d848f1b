(** Slot numbers for dense structure-of-arrays tables.  A freed slot is
    reused last in, first out; otherwise the next slot is the
    high-water mark {!limit}, and the caller grows its arrays when
    {!alloc} returns their length.  The reuse order fixes the slot-scan
    order of {!Link.resync}, so it is part of the simulators' output. *)

type t

val create : unit -> t
val alloc : t -> int
val free : t -> int -> unit

val limit : t -> int
(** Slots handed out so far; every live slot is below it. *)

val copy : t -> t
