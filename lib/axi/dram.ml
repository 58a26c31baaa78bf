(** Word-addressed shared DRAM model (the Zynq DDR).

    Both the GPP and the DMA engines access it. Timing is modelled with a
    first-word latency plus one beat per cycle once streaming, matching a
    DDR controller servicing AXI bursts on the Zynq HP ports.

    The address space is backed by fixed-size pages, allocated zero-filled
    on first write; a read of an untouched page returns 0. A system that
    touches a few kilowords of a 4M-word DRAM then costs a few pages, not
    the whole array. *)

let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

(* Shared placeholder for every untouched page; never written. *)
let absent : int array = [||]

type t = {
  size : int;
  pages : int array array; (* [absent] until the page's first write *)
  first_word_latency : int; (* cycles from burst issue to first beat *)
  mutable reads : int;
  mutable writes : int;
}

let create ?(first_word_latency = 18) ~words () =
  if words < 0 then invalid_arg "Dram.create: negative size";
  {
    size = words;
    pages = Array.make ((words + page_mask) lsr page_bits) absent;
    first_word_latency;
    reads = 0;
    writes = 0;
  }

let size t = t.size
let first_word_latency t = t.first_word_latency
let reads t = t.reads
let writes t = t.writes

let check t addr op =
  if addr < 0 || addr >= t.size then
    invalid_arg (Printf.sprintf "Dram.%s: address %d out of range" op addr)

let read t addr =
  check t addr "read";
  t.reads <- t.reads + 1;
  let page = t.pages.(addr lsr page_bits) in
  if page == absent then 0 else page.(addr land page_mask)

let write t addr v =
  check t addr "write";
  t.writes <- t.writes + 1;
  let p = addr lsr page_bits in
  if t.pages.(p) == absent then t.pages.(p) <- Array.make page_words 0;
  t.pages.(p).(addr land page_mask) <- Soc_util.Bits.truncate ~width:32 v

let read_block t ~addr ~len = Array.init len (fun i -> read t (addr + i))

let write_block t ~addr data = Array.iteri (fun i v -> write t (addr + i) v) data

(* Cycles for a DMA-style burst transfer of [len] beats, one per cycle
   after the first-word latency. *)
let burst_cycles t ~len = if len <= 0 then 0 else t.first_word_latency + len
