(** Word-addressed shared DRAM model (the Zynq DDR), accessed by the GPP
    and the DMA engines. Timing: first-word latency plus one beat per
    cycle, like a DDR controller servicing AXI bursts.

    Storage is paged: a page is allocated zero-filled on its first write,
    and an untouched word reads as 0, so an instance costs only the
    pages it writes. *)

type t

val page_words : int
(** Words per storage page. *)

val create : ?first_word_latency:int -> words:int -> unit -> t

val size : t -> int

val first_word_latency : t -> int
(** Cycles from burst issue to the first beat. *)

val reads : t -> int
(** Words read so far (blocks count every word). *)

val writes : t -> int
(** Words written so far (blocks count every word). *)

val read : t -> int -> int
(** Raises [Invalid_argument] out of range. *)

val write : t -> int -> int -> unit
(** Stores the value truncated to 32 bits. Raises [Invalid_argument] out
    of range. *)

val read_block : t -> addr:int -> len:int -> int array
val write_block : t -> addr:int -> int array -> unit
(** Word by word, in address order: a block that runs out of range
    raises at its first bad address, after the words before it. *)

val burst_cycles : t -> len:int -> int
(** Cycles for a DMA-style burst of [len] beats. *)
